"""Shared fixtures: dump XML builders and planted miner stores."""

from __future__ import annotations

import argparse
import io
from datetime import datetime, timedelta, timezone
from xml.sax.saxutils import quoteattr

import pytest

from sopipeline.cli import build_parser
from sopipeline.dump_ingest import parse_comment, parse_history, parse_post, stream_rows
from sopipeline.record_store import build_store

EPOCH = datetime(2019, 6, 1, 12, 0, 0, tzinfo=timezone.utc)


def ts(days: float = 0.0, *, base: datetime = EPOCH) -> str:
    """Dump-style timestamp string ``days`` after the fixture epoch."""
    t = base + timedelta(days=days)
    return t.strftime("%Y-%m-%dT%H:%M:%S.") + f"{t.microsecond // 1000:03d}"


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """The parser of each ``sopipeline`` subcommand, by name."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def as_dump_row(row: dict) -> dict:
    """``row`` with every value a string, as expat hands a parser a row."""
    return {key: str(value) for key, value in row.items()}


def rows_xml(rows: list[dict]) -> bytes:
    parts = ["<?xml version=\"1.0\" encoding=\"utf-8\"?>", "<rows>"]
    for row in rows:
        attrs = " ".join(f"{k}={quoteattr(str(v))}" for k, v in row.items())
        parts.append(f"  <row {attrs} />")
    parts.append("</rows>")
    return "\n".join(parts).encode("utf-8")


def question_row(qid: int, *, body="<p>How do I do this?</p>", title="How?", score=3,
                 created=None, tags="<python>", accepted=None) -> dict:
    row = {
        "Id": qid,
        "PostTypeId": 1,
        "Score": score,
        "Title": title,
        "Body": body,
        "Tags": tags,
        "CreationDate": created or ts(0),
    }
    if accepted is not None:
        row["AcceptedAnswerId"] = accepted
    return row


def answer_row(aid: int, parent: int, *, body="<p>Do it like this.</p>", score=1,
               created=None, last_edit=None) -> dict:
    row = {
        "Id": aid,
        "PostTypeId": 2,
        "ParentId": parent,
        "Score": score,
        "Body": body,
        "CreationDate": created or ts(1),
    }
    if last_edit is not None:
        row["LastEditDate"] = last_edit
    return row


def comment_row(cid: int, post: int, text: str, *, score=0, created=None) -> dict:
    return {
        "Id": cid,
        "PostId": post,
        "Text": text,
        "Score": score,
        "CreationDate": created or ts(2),
    }


def history_row(hid: int, post: int, type_id: int, text: str, *, created=None) -> dict:
    return {
        "Id": hid,
        "PostId": post,
        "PostHistoryTypeId": type_id,
        "Text": text,
        "CreationDate": created or ts(1),
    }


def store_from_rows(tmp_path, posts: list[dict], comments: list[dict] = (),
                    history: list[dict] = (), name="store"):
    """Run fixture rows through the real XML -> parse -> store path."""

    def parsed(rows, fn):
        return [fn(attrs) for attrs in stream_rows(io.BytesIO(rows_xml(list(rows))))]

    return build_store(
        parsed(posts, parse_post),
        parsed(comments, parse_comment),
        parsed(history, parse_history),
        tmp_path / name,
    )


def code_body(code: str, prose: str = "some context") -> str:
    return f"<p>{prose}</p><code>{code}</code>"


# Code-like text with no upper case, the base of the planted edits.
EDIT_BASE = "".join(f"val{k} = step(val{k - 1}, {k});\n" for k in range(1, 21))


def planted_edit(code: str, distance: int) -> str:
    """``code`` with ``distance`` evenly spaced characters replaced by upper
    case letters. ``code`` holds none, so every one of them costs an edit and
    the Levenshtein distance is exactly ``distance``."""
    chars = list(code)
    stride = len(chars) // distance
    for k in range(distance):
        chars[k * stride] = chr(ord("A") + k % 26)
    return "".join(chars)


@pytest.fixture
def miner_fixture(tmp_path):
    """Store with planted positives and distractors for each heuristic.

    Returns (store, expected) where expected maps heuristic name to the
    planted answer-id set.
    """
    posts: list[dict] = []
    comments: list[dict] = []
    history: list[dict] = []
    expected = {"keyword_comment": set(), "edited_after_comment": set(), "late_answer": set()}

    next_comment = [30000]
    next_history = [40000]

    def add_comment(post_id, text, *, created=None):
        next_comment[0] += 1
        comments.append(comment_row(next_comment[0], post_id, text, created=created))

    def add_history(post_id, type_id, text, *, created=None):
        next_history[0] += 1
        history.append(history_row(next_history[0], post_id, type_id, text, created=created))

    keywords = ["deprecated", "outdated", "obsolete", "out of date"]

    # --- keyword-comment heuristic ------------------------------------
    # 20 positives; the last 5 also carry a big post-comment edit so the
    # edited miner must drop them under precedence.
    for i in range(20):
        qid, aid = 1000 + i, 2000 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=1 + i % 3, created=ts(1)))
        add_comment(aid, f"this API is {keywords[i % 4]} now", created=ts(2))
        expected["keyword_comment"].add(aid)
        if i >= 15:
            add_history(aid, 2, code_body("x = 1"), created=ts(1))
            add_history(aid, 5, code_body("y" * 200), created=ts(3))
    # 20 distractors: question itself contains a keyword
    for i in range(20):
        qid, aid = 1100 + i, 2100 + i
        posts.append(question_row(qid, body=f"<p>Is this {keywords[i % 4]}?</p>", created=ts(0)))
        posts.append(answer_row(aid, qid, score=2, created=ts(1)))
        add_comment(aid, f"yes, {keywords[i % 4]}", created=ts(2))
    # 20 distractors: zero-score answers
    for i in range(20):
        qid, aid = 1200 + i, 2200 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=0, created=ts(1)))
        add_comment(aid, "completely obsolete", created=ts(2))
    # 10 distractors: not a whole-word match
    for i in range(10):
        qid, aid = 1300 + i, 2300 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=3, created=ts(1)))
        add_comment(aid, "this was undeprecated and unoutdated", created=ts(2))
    # 10 distractors: keyword-free comments
    for i in range(10):
        qid, aid = 1400 + i, 2400 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=3, created=ts(1)))
        add_comment(aid, "thanks, works great", created=ts(2))

    # --- edited-after-comment heuristic --------------------------------
    # 20 positives; the first two sit on the boundary at distances 100 and 101.
    for i in range(20):
        qid, aid = 1500 + i, 2500 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(
            answer_row(aid, qid, score=1 + i % 2, created=ts(1), last_edit=ts(10))
        )
        add_comment(aid, "could you update this?", created=ts(5))
        distance = 100 + i if i < 2 else 150 + i
        add_history(aid, 2, code_body(EDIT_BASE), created=ts(1))
        add_history(aid, 5, code_body(planted_edit(EDIT_BASE, distance)), created=ts(10))
        expected["edited_after_comment"].add(aid)
    # 15 distractors: edit happened before the comment
    for i in range(15):
        qid, aid = 1600 + i, 2600 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=2, created=ts(1), last_edit=ts(3)))
        add_comment(aid, "seen this late", created=ts(5))
        add_history(aid, 2, code_body(""), created=ts(1))
        add_history(aid, 5, code_body("z" * 300), created=ts(3))
    # 15 distractors: code distance just below the floor
    for i in range(15):
        qid, aid = 1700 + i, 2700 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=2, created=ts(1), last_edit=ts(10)))
        add_comment(aid, "please refresh", created=ts(5))
        add_history(aid, 2, code_body(EDIT_BASE), created=ts(1))
        add_history(aid, 5, code_body(planted_edit(EDIT_BASE, 99)), created=ts(10))
    # 15 distractors: zero-score answers with qualifying edits
    for i in range(15):
        qid, aid = 1800 + i, 2800 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=0, created=ts(1), last_edit=ts(10)))
        add_comment(aid, "hmm", created=ts(5))
        add_history(aid, 2, code_body(""), created=ts(1))
        add_history(aid, 5, code_body("z" * 300), created=ts(10))
    # 15 distractors: edited, but no comments at all
    for i in range(15):
        qid, aid = 1900 + i, 2900 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(answer_row(aid, qid, score=2, created=ts(1), last_edit=ts(10)))
        add_history(aid, 2, code_body(""), created=ts(1))
        add_history(aid, 5, code_body("z" * 300), created=ts(10))

    # --- late-answer heuristic -----------------------------------------
    # 20 positives; first one exactly at the 1.5-year boundary.
    phrases = ["'s answers", "answer by", "accepted answer", "other answer"]
    for i in range(20):
        qid, aid = 3000 + i, 5000 + i
        delay = 547.5 if i == 0 else 600 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(
            answer_row(
                aid,
                qid,
                score=2 + i % 3,
                created=ts(delay),
                body=f"<p>The {phrases[i % 4]} above no longer works; use this.</p>",
            )
        )
        expected["late_answer"].add(aid)
    # 20 distractors: too early (1 year)
    for i in range(20):
        qid, aid = 3100 + i, 5100 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(
            answer_row(aid, qid, score=3, created=ts(365), body="<p>See the accepted answer.</p>")
        )
    # 20 distractors: exactly one upvote
    for i in range(20):
        qid, aid = 3200 + i, 5200 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(
            answer_row(aid, qid, score=1, created=ts(700), body="<p>Better than the other answer.</p>")
        )
    # 20 distractors: late and upvoted but no reference phrase
    for i in range(20):
        qid, aid = 3300 + i, 5300 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(
            answer_row(aid, qid, score=3, created=ts(700), body="<p>Here is a modern way.</p>")
        )

    store = store_from_rows(tmp_path, posts, comments, history, name="miner_store")
    return store, expected
