"""Mine obsoletion-candidate answers from a sealed record store.

Three heuristics, applied with precedence so their outputs are disjoint:
keyword-bearing comments, answers substantially edited after a comment
(code edit distance >= 100), and late answers that reference an earlier
answer. Also: the balanced annotation draw and Cohen's kappa scoring.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import timedelta
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .corpus import clean_text, split_code
from .dump_ingest import HistoryType, PostType
from .errors import MetricError, UsageError
from .record_store import RecordStore

logger = logging.getLogger(__name__)

OBSOLETION_KEYWORDS = ("deprecated", "outdated", "obsolete", "out of date")
REFERENCE_PHRASES = ("'s answers", "answer by", "accepted answer", "other answer")
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


def mine_keyword_comments(
    store: RecordStore,
    *,
    keywords: Sequence[str] = OBSOLETION_KEYWORDS,
    min_score: int = 1,
) -> Iterator[ObsoleteCandidate]:
    """Answers with an obsoletion-keyword comment on a keyword-free question.

    Keyword matching is case-insensitive and whole-word (phrase for multi
    word entries). The parent question's title+body must contain none of
    the keywords; evidence is the first matching comment.
    """
    pattern = _keyword_pattern(keywords)
    question_clean: dict[int, bool] = {}
    for answer in store.iter_answers(min_score=min_score):
        comments = store.comments_for(answer.id)
        match_text = None
        for comment in comments:
            if pattern.search(comment.text):
                match_text = comment.text
                break
        if match_text is None:
            continue
        qid = answer.parent_id
        if qid not in question_clean:
            question = store.get_post(qid) if qid is not None else None
            if question is None:
                question_clean[qid] = False
            else:
                qtext = (question.title or "") + " " + clean_text(question.body, post_id=qid)
                question_clean[qid] = pattern.search(qtext) is None
        if not question_clean[qid]:
            continue
        yield ObsoleteCandidate(
            answer_id=answer.id,
            question_id=qid,
            heuristic=Heuristic.KEYWORD_COMMENT,
            evidence=match_text,
            answer_text=clean_text(answer.body, post_id=answer.id),
            score=answer.score,
        )


def mine_edited_after_comment(
    store: RecordStore,
    exclusions: Iterable[int] = (),
    *,
    levenshtein_min: int = DEFAULT_LEVENSHTEIN_MIN,
    min_score: int = 1,
) -> Iterator[ObsoleteCandidate]:
    """Answers substantially edited after a comment.

    Requires a body edit revision dated after some comment on the answer,
    and an edit distance of at least ``levenshtein_min`` (inclusive)
    between the code of the earliest and latest body revisions. Pass the
    keyword-comment answer ids as ``exclusions`` to keep the sets disjoint.
    """
    excluded = set(exclusions)
    for answer in store.iter_answers(min_score=min_score):
        if answer.id in excluded:
            continue
        comments = store.comments_for(answer.id)
        if not comments:
            continue
        revisions = [
            h
            for h in store.history_for(answer.id)
            if h.history_type in (HistoryType.INITIAL_BODY, HistoryType.EDIT_BODY)
        ]
        edits = [h for h in revisions if h.history_type is HistoryType.EDIT_BODY]
        if not edits:
            if answer.last_edit_date is not None:
                logger.warning("answer %d edited but has no body revisions; skipped", answer.id)
            continue
        first_comment_date = comments[0].creation_date
        if not any(e.creation_date > first_comment_date for e in edits):
            continue
        before = extract_code(revisions[0].text)
        after = extract_code(revisions[-1].text)
        distance = levenshtein(before, after)
        if distance < levenshtein_min:
            continue
        yield ObsoleteCandidate(
            answer_id=answer.id,
            question_id=answer.parent_id,
            heuristic=Heuristic.EDITED_AFTER_COMMENT,
            evidence=f"levenshtein={distance}",
            answer_text=clean_text(answer.body, post_id=answer.id),
            score=answer.score,
        )


def mine_late_answers(
    store: RecordStore,
    exclusions: Iterable[int] = (),
    *,
    late_years: float = DEFAULT_LATE_YEARS,
    min_score: int = DEFAULT_LATE_MIN_SCORE,
    phrases: Sequence[str] = REFERENCE_PHRASES,
) -> Iterator[ObsoleteCandidate]:
    """Late answers (>= 1.5 years after the question, boundary inclusive)
    that reference another answer by phrase, with more than one upvote.

    Phrase matching is a case-insensitive substring test over the cleaned
    answer text, so URLs cannot hide a reference.
    """
    excluded = set(exclusions)
    delay = timedelta(days=late_years * _DAYS_PER_YEAR)
    lowered = [p.lower() for p in phrases]
    question_dates: dict[int, Optional[object]] = {}
    for answer in store.iter_answers(min_score=min_score):
        if answer.id in excluded or answer.parent_id is None:
            continue
        qid = answer.parent_id
        if qid not in question_dates:
            question = store.get_post(qid)
            question_dates[qid] = (
                question.creation_date
                if question is not None and question.post_type is PostType.QUESTION
                else None
            )
        qdate = question_dates[qid]
        if qdate is None or answer.creation_date < qdate + delay:
            continue
        cleaned = clean_text(answer.body, post_id=answer.id)
        folded = cleaned.lower()
        matched = next((p for p in lowered if p in folded), None)
        if matched is None:
            continue
        yield ObsoleteCandidate(
            answer_id=answer.id,
            question_id=qid,
            heuristic=Heuristic.LATE_ANSWER,
            evidence=matched,
            answer_text=cleaned,
            score=answer.score,
        )


def mine_all(
    store: RecordStore,
    *,
    keywords: Sequence[str] = OBSOLETION_KEYWORDS,
    levenshtein_min: int = DEFAULT_LEVENSHTEIN_MIN,
    late_years: float = DEFAULT_LATE_YEARS,
    late_min_score: int = DEFAULT_LATE_MIN_SCORE,
) -> list[ObsoleteCandidate]:
    """All three heuristics with precedence keyword > edited > late, so any
    answer appears at most once."""
    keyword = list(mine_keyword_comments(store, keywords=keywords))
    seen = {c.answer_id for c in keyword}
    edited = list(mine_edited_after_comment(store, seen, levenshtein_min=levenshtein_min))
    seen |= {c.answer_id for c in edited}
    late = list(mine_late_answers(store, seen, late_years=late_years, min_score=late_min_score))
    return keyword + edited + late


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
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cand in candidates:
            fh.write(
                json.dumps(
                    {
                        "id": cand.answer_id,
                        "question_id": cand.question_id,
                        "heuristic": cand.heuristic.value,
                        "evidence": cand.evidence,
                        "answer_text": cand.answer_text,
                        "score": cand.score,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
            n += 1
    return n


def import_candidates(path: str | Path) -> list[ObsoleteCandidate]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            out.append(
                ObsoleteCandidate(
                    answer_id=obj["id"],
                    question_id=obj.get("question_id"),
                    heuristic=Heuristic(obj["heuristic"]),
                    evidence=obj["evidence"],
                    answer_text=obj["answer_text"],
                    score=obj["score"],
                )
            )
    return out


def import_annotations(
    path: str | Path, known_ids: Optional[set[int]] = None
) -> list[AnnotationRecord]:
    """TSV with header candidate_id/label/annotator; labels validated, and
    ids checked against ``known_ids`` when provided."""
    records: list[AnnotationRecord] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["candidate_id", "label", "annotator"]:
            raise UsageError(f"{path}: expected header candidate_id<TAB>label<TAB>annotator")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise UsageError(f"{path}:{lineno}: expected 3 tab-separated fields")
            cand_id, label, annotator = fields
            if label not in VALID_LABELS:
                raise UsageError(
                    f"{path}:{lineno}: invalid label {label!r} (expected one of {VALID_LABELS})"
                )
            try:
                cid = int(cand_id)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: candidate_id must be an integer") from None
            if known_ids is not None and cid not in known_ids:
                raise UsageError(f"{path}:{lineno}: unknown candidate id {cid}")
            records.append(AnnotationRecord(candidate_id=cid, label=label, annotator=annotator))
    seen = set()
    for rec in records:
        key = (rec.candidate_id, rec.annotator)
        if key in seen:
            raise UsageError(f"duplicate annotation for candidate {rec.candidate_id} by {rec.annotator}")
        seen.add(key)
    return records
