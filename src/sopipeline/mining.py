"""Mine obsoletion-candidate answers from a sealed record store.

Three heuristics, applied with precedence so their outputs are disjoint:
keyword-bearing comments, answers substantially edited after a comment
(code edit distance >= 100), and late answers that reference an earlier
answer. Also: the balanced annotation draw and Cohen's kappa scoring.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .corpus import clean_text, split_code
from .dump_ingest import HISTORY_EDIT_BODY, POST_QUESTION
from .errors import MetricError, PipelineError, UsageError
from .linefiles import read_jsonl, read_tsv, tsv_int, write_jsonl
from .record_store import AnswerThread, RecordStore

logger = logging.getLogger(__name__)

OBSOLETION_KEYWORDS = ("deprecated", "outdated", "obsolete", "out of date")
REFERENCE_PHRASES = ("'s answers", "answer by", "accepted answer", "other answer")
DEFAULT_MIN_SCORE = 1
DEFAULT_LEVENSHTEIN_MIN = 100
DEFAULT_LATE_YEARS = 1.5
DEFAULT_LATE_MIN_SCORE = 2
_DAYS_PER_YEAR = 365.0


class Heuristic(Enum):
    KEYWORD_COMMENT = "keyword_comment"
    EDITED_AFTER_COMMENT = "edited_after_comment"
    LATE_ANSWER = "late_answer"


@dataclass
class ObsoleteCandidate:
    answer_id: int
    question_id: Optional[int]
    heuristic: Heuristic
    evidence: str
    answer_text: str
    score: int


@dataclass
class AnnotationRecord:
    candidate_id: int
    label: str  # "Obsolete" | "NotObsolete"
    annotator: str


VALID_LABELS = ("Obsolete", "NotObsolete")


def levenshtein(a: str, b: str) -> int:
    """Minimum single-character insert/delete/substitute count over code points.

    Bit-parallel: one DP column of the shorter string ``a`` (length m) is
    held as vertical +1/-1 delta bit vectors, so each character of ``b``
    costs about ceil(m/64) word operations. Myers 1999, "A fast bit-vector
    algorithm for approximate string matching based on dynamic
    programming", JACM 46(3); global edit distance in the form of Hyyrö
    2001, "Explaining and extending the bit-parallel approximate string
    matching algorithm of Myers": the score starts at m and row 0 carries
    +1 into each horizontal delta.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) < len(a):
        a, b = b, a
    m = len(a)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    pv, mv, score = mask, 0, m
    for c in b:
        eq = peq.get(c, 0)
        d0 = ((((eq & pv) + pv) ^ pv) | eq | mv) & mask
        ph = mv | (~(d0 | pv) & mask)
        mh = pv & d0
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(d0 | ph)) & mask
        mv = ph & d0
    return score


def extract_code(body: str) -> str:
    """All ``<code>`` span contents in order, newline-joined.

    Split as in cleaning: an unclosed ``<code>`` swallows the remainder of
    the body.
    """
    return "\n".join(split_code(body)[1::2])


def _keyword_pattern(keywords: Sequence[str]) -> re.Pattern:
    # whole-word match; multiword phrases tolerate any whitespace run
    alts = [r"\s+".join(re.escape(w) for w in k.split()) for k in keywords]
    return re.compile(r"\b(?:" + "|".join(alts) + r")\b", re.IGNORECASE)


def _candidate(answer, heuristic: Heuristic, evidence: str, text: str) -> ObsoleteCandidate:
    return ObsoleteCandidate(answer.id, answer.parent_id, heuristic, evidence, text, answer.score)


class _KeywordCheck:
    """An answer with an obsoletion-keyword comment on a keyword-free question.

    Keyword matching is case-insensitive and whole-word (phrase for multi
    word entries). The parent post's title+body must contain none of the
    keywords; evidence is the first matching comment. Each parent is
    cleaned once: its verdict is kept, for parents reached through a
    matching comment only.
    """

    def __init__(self, keywords: Sequence[str]):
        self.pattern = _keyword_pattern(keywords)
        self.question_clean: dict[int, bool] = {}

    def __call__(self, thread: AnswerThread) -> Optional[ObsoleteCandidate]:
        answer, question, comments, _ = thread
        match_text = next((c.text for c in comments if self.pattern.search(c.text)), None)
        if match_text is None:
            return None
        qid = answer.parent_id
        if qid not in self.question_clean:
            if question is None:
                self.question_clean[qid] = False
            else:
                qtext = (question.title or "") + " " + clean_text(question.body, post_id=qid)
                self.question_clean[qid] = self.pattern.search(qtext) is None
        if not self.question_clean[qid]:
            return None
        cleaned = clean_text(answer.body, post_id=answer.id)
        return _candidate(answer, Heuristic.KEYWORD_COMMENT, match_text, cleaned)


def _edited_check(
    thread: AnswerThread, levenshtein_min: int, counters: dict
) -> Optional[ObsoleteCandidate]:
    """An answer substantially edited after a comment.

    Requires a body edit revision dated after some comment on the answer,
    and an edit distance of at least ``levenshtein_min`` (inclusive)
    between the code of the earliest and latest body revisions. An answer
    marked edited that has no edit revision is counted in
    ``counters["skipped_no_revisions"]``.
    """
    answer, _, comments, revisions = thread
    if not comments:
        return None
    edits = [h for h in revisions if h.history_type_id == HISTORY_EDIT_BODY]
    if not edits:
        if answer.last_edit_date is not None:
            logger.warning("answer %d edited but has no body revisions; skipped", answer.id)
            counters["skipped_no_revisions"] = counters.get("skipped_no_revisions", 0) + 1
        return None
    first_comment_date = comments[0].creation_date
    if not any(e.creation_date > first_comment_date for e in edits):
        return None
    distance = levenshtein(extract_code(revisions[0].text), extract_code(revisions[-1].text))
    if distance < levenshtein_min:
        return None
    cleaned = clean_text(answer.body, post_id=answer.id)
    return _candidate(answer, Heuristic.EDITED_AFTER_COMMENT, f"levenshtein={distance}", cleaned)


def _late_check(
    thread: AnswerThread, delay: timedelta, lowered: Sequence[str]
) -> Optional[ObsoleteCandidate]:
    """A late answer (``delay`` or more after its question, boundary
    inclusive) that references another answer by a lower-cased phrase.

    Phrase matching is a case-insensitive substring test over the cleaned
    answer text, so URLs cannot hide a reference.
    """
    answer, question, _, _ = thread
    if question is None or question.post_type_id != POST_QUESTION:
        return None
    # Elsewhere dates compare as canonical strings; the delay needs times.
    age = datetime.fromisoformat(answer.creation_date) - datetime.fromisoformat(question.creation_date)
    if age < delay:
        return None
    cleaned = clean_text(answer.body, post_id=answer.id)
    folded = cleaned.lower()
    matched = next((p for p in lowered if p in folded), None)
    return None if matched is None else _candidate(answer, Heuristic.LATE_ANSWER, matched, cleaned)


def _passing(threads: Iterable[AnswerThread], check, exclusions: Iterable[int]) -> Iterator:
    """The candidates ``check`` finds among threads whose answer is not excluded."""
    excluded = set(exclusions)
    for thread in threads:
        if thread.answer.id not in excluded and (cand := check(thread)) is not None:
            yield cand


def mine_keyword_comments(
    store: RecordStore,
    *,
    keywords: Sequence[str] = OBSOLETION_KEYWORDS,
    min_score: int = DEFAULT_MIN_SCORE,
) -> Iterator[ObsoleteCandidate]:
    """Answers with an obsoletion-keyword comment on a keyword-free question
    (see :class:`_KeywordCheck`)."""
    return _passing(store.iter_threads(min_score, comments=True), _KeywordCheck(keywords), ())


def mine_edited_after_comment(
    store: RecordStore,
    exclusions: Iterable[int] = (),
    *,
    levenshtein_min: int = DEFAULT_LEVENSHTEIN_MIN,
    min_score: int = DEFAULT_MIN_SCORE,
) -> Iterator[ObsoleteCandidate]:
    """Answers substantially edited after a comment (see :func:`_edited_check`).
    Pass the keyword-comment answer ids as ``exclusions`` to keep the sets
    disjoint."""
    threads = store.iter_threads(min_score, comments=True, history=True)
    return _passing(threads, lambda t: _edited_check(t, levenshtein_min, {}), exclusions)


def mine_late_answers(
    store: RecordStore,
    exclusions: Iterable[int] = (),
    *,
    late_years: float = DEFAULT_LATE_YEARS,
    min_score: int = DEFAULT_LATE_MIN_SCORE,
) -> Iterator[ObsoleteCandidate]:
    """Late answers (>= 1.5 years after the question, boundary inclusive)
    that reference another answer by phrase, with more than one upvote
    (see :func:`_late_check`)."""
    delay = timedelta(days=late_years * _DAYS_PER_YEAR)
    lowered = [p.lower() for p in REFERENCE_PHRASES]
    return _passing(store.iter_threads(min_score), lambda t: _late_check(t, delay, lowered), exclusions)


def mine_all(
    store: RecordStore,
    *,
    keywords: Sequence[str] = OBSOLETION_KEYWORDS,
    levenshtein_min: int = DEFAULT_LEVENSHTEIN_MIN,
    late_years: float = DEFAULT_LATE_YEARS,
    late_min_score: int = DEFAULT_LATE_MIN_SCORE,
    counters: Optional[dict] = None,
) -> list[ObsoleteCandidate]:
    """All three heuristics with precedence keyword > edited > late, so any
    answer appears at most once: the keyword, then the edited, then the
    late candidates, each in answer-id order.

    One pass over the store's answer threads; skip counts land in
    ``counters``.
    """
    counters = {} if counters is None else counters
    counters.setdefault("skipped_no_revisions", 0)
    keyword_check = _KeywordCheck(keywords)
    delay = timedelta(days=late_years * _DAYS_PER_YEAR)
    lowered = [p.lower() for p in REFERENCE_PHRASES]
    found: dict[Heuristic, list[ObsoleteCandidate]] = {h: [] for h in Heuristic}
    floor = min(DEFAULT_MIN_SCORE, late_min_score)
    for thread in store.iter_threads(floor, comments=True, history=True):
        score = thread.answer.score
        cand = None
        if score >= DEFAULT_MIN_SCORE:
            cand = keyword_check(thread) or _edited_check(thread, levenshtein_min, counters)
        if cand is None and score >= late_min_score:
            cand = _late_check(thread, delay, lowered)
        if cand is not None:
            found[cand.heuristic].append(cand)
    return [c for h in Heuristic for c in found[h]]


@dataclass
class AnnotationSample:
    candidates: list[ObsoleteCandidate]
    per_heuristic: dict[str, int]
    shortfall: dict[str, int]


def sample_for_annotation(
    candidates: Sequence[ObsoleteCandidate], n: int, seed: int = 0
) -> AnnotationSample:
    """Draw floor(n/3) candidates per heuristic uniformly without
    replacement; under-populated heuristics are reported as shortfall, not
    silently rebalanced."""
    if n <= 0:
        raise UsageError(f"sample size must be positive, got {n}")
    by_heuristic: dict[Heuristic, list[ObsoleteCandidate]] = {h: [] for h in Heuristic}
    for cand in candidates:
        by_heuristic[cand.heuristic].append(cand)
    if all(not v for v in by_heuristic.values()):
        raise UsageError("no candidates in any heuristic category")

    want = n // 3
    rng = np.random.default_rng(seed)
    chosen: list[ObsoleteCandidate] = []
    per_heuristic: dict[str, int] = {}
    shortfall: dict[str, int] = {}
    for heuristic in Heuristic:
        pool = by_heuristic[heuristic]
        take = min(want, len(pool))
        if take < want:
            shortfall[heuristic.value] = want - take
        picks = rng.choice(len(pool), size=take, replace=False) if take else []
        chosen.extend(pool[int(i)] for i in sorted(picks))
        per_heuristic[heuristic.value] = take
    return AnnotationSample(candidates=chosen, per_heuristic=per_heuristic, shortfall=shortfall)


def cohen_kappa(labels_a: Sequence, labels_b: Sequence) -> float:
    """Chance-corrected agreement: (p_o - p_e) / (1 - p_e)."""
    if len(labels_a) != len(labels_b):
        raise MetricError(f"label vectors differ in length: {len(labels_a)} vs {len(labels_b)}")
    if not labels_a:
        raise MetricError("cannot score empty labelings")
    n = len(labels_a)
    observed = sum(1 for x, y in zip(labels_a, labels_b) if x == y) / n
    classes = set(labels_a) | set(labels_b)
    expected = sum(
        (sum(1 for x in labels_a if x == c) / n) * (sum(1 for y in labels_b if y == c) / n)
        for c in classes
    )
    if expected == 1.0:
        raise MetricError("kappa undefined: both annotators gave one constant, identical label")
    return (observed - expected) / (1.0 - expected)


# -- candidate/annotation files ------------------------------------------------


def export_candidates(candidates: Iterable[ObsoleteCandidate], path: str | Path) -> int:
    """JSON-Lines export (id, heuristic, evidence, answer_text, score)."""
    return write_jsonl(path, ({"id": cand.answer_id, "question_id": cand.question_id, "heuristic": cand.heuristic.value,
                               "evidence": cand.evidence, "answer_text": cand.answer_text, "score": cand.score}
                              for cand in candidates))


# in ObsoleteCandidate's field order; an absent question_id reads as None
_CANDIDATE_FIELDS = {"id": int, "question_id": (int, type(None)), "heuristic": str, "evidence": str,
                     "answer_text": str, "score": int}


def import_candidates(path: str | Path) -> list[ObsoleteCandidate]:
    out = []
    for lineno, (answer_id, question_id, heuristic, *rest) in read_jsonl(path, _CANDIDATE_FIELDS):
        try:
            kind = Heuristic(heuristic)
        except ValueError:
            raise PipelineError(f"{path}:{lineno}: unknown heuristic {heuristic!r}") from None
        out.append(ObsoleteCandidate(answer_id, question_id, kind, *rest))
    return out


def read_annotations(path: str | Path) -> Iterator[tuple[int, AnnotationRecord]]:
    """(lineno, record) per row of a TSV with header candidate_id/label/annotator;
    labels validated, and a second row for one (candidate, annotator) refused."""
    first_line: dict[tuple[int, str], int] = {}
    for lineno, (cand_id, label, annotator) in read_tsv(path, ("candidate_id", "label", "annotator")):
        if label not in VALID_LABELS:
            raise UsageError(f"{path}:{lineno}: invalid label {label!r} (expected one of {VALID_LABELS})")
        cid = tsv_int(path, lineno, "candidate_id", cand_id)
        first = first_line.setdefault((cid, annotator), lineno)
        if first != lineno:
            raise UsageError(
                f"{path}:{lineno}: duplicate annotation for candidate {cid} by {annotator!r} (first at line {first})"
            )
        yield lineno, AnnotationRecord(candidate_id=cid, label=label, annotator=annotator)
