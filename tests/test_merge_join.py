"""The merged store scan against the point-read route it replaced.

``iter_threads`` joins each answer with its parent, its comments and its
body revisions from one ordered scan per table. The point-read miners and
``filter_answers`` below (one ``get_post`` / ``comments_for`` /
``history_for`` per answer) are kept as the oracle: on seeded random
stores, candidates, warnings and corpus inputs must be the same.
"""

import logging
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import answer_row, code_body, comment_row, history_row, question_row, store_from_rows, ts
from sopipeline.corpus import clean_text, filter_answers
from sopipeline.dump_ingest import HISTORY_EDIT_BODY, POST_QUESTION
from sopipeline.mining import (
    DEFAULT_LATE_MIN_SCORE,
    OBSOLETION_KEYWORDS,
    REFERENCE_PHRASES,
    Heuristic,
    ObsoleteCandidate,
    _DAYS_PER_YEAR,
    _keyword_pattern,
    extract_code,
    levenshtein,
    mine_all,
    mine_edited_after_comment,
    mine_keyword_comments,
    mine_late_answers,
)

# -- the point-read oracle ------------------------------------------------------


def oracle_keyword(store, *, keywords=OBSOLETION_KEYWORDS, min_score=1):
    pattern = _keyword_pattern(keywords)
    question_clean = {}
    for answer in store.iter_answers(min_score=min_score):
        match_text = next((c.text for c in store.comments_for(answer.id) if pattern.search(c.text)), None)
        if match_text is None:
            continue
        qid = answer.parent_id
        if qid not in question_clean:
            question = store.get_post(qid)
            if question is None:
                question_clean[qid] = False
            else:
                qtext = (question.title or "") + " " + clean_text(question.body, post_id=qid)
                question_clean[qid] = pattern.search(qtext) is None
        if not question_clean[qid]:
            continue
        yield ObsoleteCandidate(answer.id, qid, Heuristic.KEYWORD_COMMENT, match_text,
                                clean_text(answer.body, post_id=answer.id), answer.score)


def oracle_edited(store, exclusions=(), *, levenshtein_min=100, min_score=1):
    excluded = set(exclusions)
    for answer in store.iter_answers(min_score=min_score):
        if answer.id in excluded:
            continue
        comments = store.comments_for(answer.id)
        if not comments:
            continue
        revisions = [
            h for h in store.history_for(answer.id)
            if h.history_type_id in (2, HISTORY_EDIT_BODY)  # initial body, body edit
        ]
        edits = [h for h in revisions if h.history_type_id == HISTORY_EDIT_BODY]
        if not edits:
            if answer.last_edit_date is not None:
                logging.getLogger("sopipeline.mining").warning(
                    "answer %d edited but has no body revisions; skipped", answer.id)
            continue
        if not any(e.creation_date > comments[0].creation_date for e in edits):
            continue
        distance = levenshtein(extract_code(revisions[0].text), extract_code(revisions[-1].text))
        if distance < levenshtein_min:
            continue
        yield ObsoleteCandidate(answer.id, answer.parent_id, Heuristic.EDITED_AFTER_COMMENT,
                                f"levenshtein={distance}", clean_text(answer.body, post_id=answer.id),
                                answer.score)


def oracle_late(store, exclusions=(), *, late_years=1.5, min_score=DEFAULT_LATE_MIN_SCORE,
                phrases=REFERENCE_PHRASES):
    excluded = set(exclusions)
    delay = timedelta(days=late_years * _DAYS_PER_YEAR)
    lowered = [p.lower() for p in phrases]
    for answer in store.iter_answers(min_score=min_score):
        if answer.id in excluded or answer.parent_id is None:
            continue
        question = store.get_post(answer.parent_id)
        if question is None or question.post_type_id != POST_QUESTION:
            continue
        if datetime.fromisoformat(answer.creation_date) < datetime.fromisoformat(question.creation_date) + delay:
            continue
        cleaned = clean_text(answer.body, post_id=answer.id)
        matched = next((p for p in lowered if p in cleaned.lower()), None)
        if matched is None:
            continue
        yield ObsoleteCandidate(answer.id, answer.parent_id, Heuristic.LATE_ANSWER, matched, cleaned,
                                answer.score)


def oracle_mine_all(store, *, levenshtein_min=100, late_min_score=DEFAULT_LATE_MIN_SCORE):
    keyword = list(oracle_keyword(store))
    seen = {c.answer_id for c in keyword}
    edited = list(oracle_edited(store, seen, levenshtein_min=levenshtein_min))
    seen |= {c.answer_id for c in edited}
    return keyword + edited + list(oracle_late(store, seen, min_score=late_min_score))


def oracle_filter_answers(store, *, min_score=1, min_comments=1):
    for answer in store.iter_answers(min_score=min_score):
        comments = store.comments_for(answer.id)
        if len(comments) >= min_comments:
            yield answer, comments


# -- seeded random stores -------------------------------------------------------

_COMMENTS = ("thanks", "this is deprecated now", "Outdated since v3", "see www.x.io/a", "obsolete!",
             "works for me", "out   of date", "undeprecated")
_QUESTION_BODIES = ("<p>How do I do this?</p>", "<p>is this obsolete?</p>", "<p>intro</p><code>x = 1",
                    "<p>see the docs</p>")
_ANSWER_PROSE = ("do it like this", "unlike the accepted answer this works", "see John's answers",
                 "as the other answer says", "a modern way")


def random_store(tmp_path, seed: int):
    """Questions, answers and edge cases: answers whose parent is missing or
    is an answer, comments on questions and on no post, equal comment and
    revision dates, non-body history kinds, edited answers without body
    revisions and unclosed <code> spans."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    posts, comments, history = [], [], []
    qids = list(range(1, 31))
    for qid in qids:
        posts.append(question_row(qid, body=pick(_QUESTION_BODIES), title=pick(("How?", "Obsolete API?")),
                                  created=ts(float(rng.integers(0, 50)))))
    answer_ids = list(range(100, 220))
    for aid in answer_ids:
        kind = float(rng.random())
        parent = int(pick(qids))
        if kind < 0.05:
            parent = 9000 + aid  # missing parent
        elif kind < 0.1:
            parent = answer_ids[0]  # parent is an answer
        code = "".join(pick(("a = 1;\n", "b(c);\n", "for x in y:\n", "z\n")) for _ in range(int(rng.integers(0, 6))))
        body = code_body(code, prose=pick(_ANSWER_PROSE))
        if rng.random() < 0.08:
            body = f"<p>{pick(_ANSWER_PROSE)}</p><code>{code}"  # unclosed
        created = float(rng.integers(0, 900))
        edited = rng.random() < 0.4
        posts.append(answer_row(aid, parent, body=body, score=int(rng.integers(-1, 5)), created=ts(created),
                                last_edit=ts(created + 20) if edited else None))
        for _ in range(int(rng.integers(0, 4))):
            comments.append(comment_row(0, aid, pick(_COMMENTS), created=ts(created + float(rng.integers(1, 4)))))
        if edited and rng.random() < 0.85:
            history.append(history_row(0, aid, 2, code_body(code), created=ts(created)))
            for _ in range(int(rng.integers(0, 3))):
                new_code = code + "".join(pick("xyz_(;") for _ in range(int(rng.integers(0, 30))))
                history.append(history_row(0, aid, pick((5, 5, 4, 24)), code_body(new_code),
                                           created=ts(created + float(rng.integers(0, 6)))))
        history.append(history_row(0, aid, pick((1, 3, 16)), "", created=ts(created)))
    for qid in qids[:8]:
        comments.append(comment_row(0, qid, "deprecated question comment", created=ts(1)))
        history.append(history_row(0, qid, 2, "<p>question v0</p>", created=ts(0)))
    for _ in range(4):  # dangling rows on posts that do not exist
        comments.append(comment_row(0, int(rng.integers(5000, 6000)), "obsolete", created=ts(3)))
        history.append(history_row(0, int(rng.integers(5000, 6000)), 5, code_body("q"), created=ts(3)))

    # Ids out of date order, so equal dates fall back to the id tie-break.
    for rows, base in ((comments, 10_000), (history, 50_000)):
        for row, new_id in zip(rows, base + rng.permutation(len(rows))):
            row["Id"] = int(new_id)
    return store_from_rows(tmp_path, posts, comments, history, name=f"rand{seed}")


SEEDS = (1, 2, 3, 4)


@pytest.fixture(scope="module", params=SEEDS)
def rand_store(request, tmp_path_factory):
    store = random_store(tmp_path_factory.mktemp("merge"), request.param)
    yield store
    store.close()


def _warnings(caplog):
    return sorted(r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)


class TestAgainstPointReads:
    @pytest.mark.parametrize("late_min_score", [0, 2, 3])
    @pytest.mark.parametrize("levenshtein_min", [1, 8, 100])
    def test_mine_all_matches_oracle(self, rand_store, caplog, late_min_score, levenshtein_min):
        caplog.set_level(logging.WARNING)
        want = oracle_mine_all(rand_store, levenshtein_min=levenshtein_min, late_min_score=late_min_score)
        want_warnings = _warnings(caplog)
        caplog.clear()
        counters = {}
        got = mine_all(rand_store, levenshtein_min=levenshtein_min, late_min_score=late_min_score,
                       counters=counters)
        assert got == want
        assert _warnings(caplog) == want_warnings
        assert counters["skipped_no_revisions"] == sum("no body revisions" in w for w in want_warnings)

    def test_each_miner_matches_oracle(self, rand_store):
        keyword = list(mine_keyword_comments(rand_store))
        assert keyword == list(oracle_keyword(rand_store))
        seen = {c.answer_id for c in keyword}
        for exclusions in ((), seen):
            assert list(mine_edited_after_comment(rand_store, exclusions, levenshtein_min=8)) == list(
                oracle_edited(rand_store, exclusions, levenshtein_min=8))
            for min_score in (0, 3):
                assert list(mine_late_answers(rand_store, exclusions, min_score=min_score)) == list(
                    oracle_late(rand_store, exclusions, min_score=min_score))

    def test_every_heuristic_and_edge_case_is_exercised(self, rand_store, caplog):
        caplog.set_level(logging.WARNING)
        found = {c.heuristic for c in mine_all(rand_store, levenshtein_min=1, late_min_score=0)}
        assert found == set(Heuristic)
        assert any("no body revisions" in w for w in _warnings(caplog))
        assert any("unbalanced <code>" in w for w in _warnings(caplog))
        assert rand_store.load_report.dangling_comment_ids and rand_store.load_report.dangling_history_ids

    @pytest.mark.parametrize("min_score,min_comments", [(1, 1), (0, 0), (-5, 2), (3, 1)])
    def test_filter_answers_matches_oracle(self, rand_store, min_score, min_comments):
        got = list(filter_answers(rand_store, min_score=min_score, min_comments=min_comments))
        want = list(oracle_filter_answers(rand_store, min_score=min_score, min_comments=min_comments))
        assert got == want


class TestThreads:
    def test_equal_dates_fall_back_to_id_order(self, tmp_path):
        posts = [question_row(1, created=ts(0)), answer_row(10, 1, created=ts(1))]
        comments = [comment_row(c, 10, f"c{c}", created=ts(2)) for c in (33, 31, 32)]
        comments.append(comment_row(30, 10, "later", created=ts(3)))
        history = [history_row(h, 10, 5 if h % 2 else 2, f"v{h}", created=ts(1)) for h in (42, 41, 44, 43)]
        store = store_from_rows(tmp_path, posts, comments, history)
        (thread,) = store.iter_threads(comments=True, history=True)
        assert [c.id for c in thread.comments] == [31, 32, 33, 30]
        assert [h.id for h in thread.revisions] == [41, 42, 43, 44]

    def test_lists_not_asked_for_are_empty(self, rand_store):
        for thread in rand_store.iter_threads():
            assert thread.comments == [] and thread.revisions == []

    def test_parent_fields(self, tmp_path):
        posts = [
            question_row(1, title="T", body="<p>B</p>", created=ts(5)),
            answer_row(10, 1, created=ts(6)),
            answer_row(11, 10, created=ts(7)),  # parent is an answer
            answer_row(12, 99, created=ts(8)),  # parent missing
        ]
        store = store_from_rows(tmp_path, posts)
        threads = {t.answer.id: t.question for t in store.iter_threads()}
        assert threads[10] == (1, "T", "<p>B</p>", store.get_post(1).creation_date)
        assert threads[11].post_type_id == 2 and threads[11].title is None
        assert threads[12] is None
