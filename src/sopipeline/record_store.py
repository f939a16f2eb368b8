"""Indexed on-disk store for dump records.

The original workflow loads dump tables into a SQL database; here the store
is an embedded sqlite file inside a small versioned directory, giving the
same query surface (post by id, comments/history by post) without an
external database server. Bulk readers take ordered scans merged
in Python (``RecordStore.iter_threads``) rather than point reads per answer.
A sealed store is read-only and safe for concurrent readers.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

from .atomic import replacing
from .dump_ingest import CommentRecord, PostHistoryRecord, PostRecord
from .errors import DuplicateIdError, StoreError

FORMAT_VERSION = 2
_DB_NAME = "records.db"
_META_NAME = "meta.json"
_REPORT_NAME = "load_report.txt"
_TABLES = ("posts", "comments", "post_history")

# Each table's columns are its record's fields, in the same order, so a
# record is inserted as it is and a row read back is a record.
_SCHEMA = """
CREATE TABLE posts (
    id INTEGER PRIMARY KEY,
    post_type_id INTEGER NOT NULL,
    body TEXT NOT NULL,
    creation_date TEXT NOT NULL,
    parent_id INTEGER,
    accepted_answer_id INTEGER,
    score INTEGER NOT NULL,
    title TEXT,
    tags TEXT,
    last_edit_date TEXT
);
CREATE TABLE comments (
    id INTEGER PRIMARY KEY,
    post_id INTEGER NOT NULL,
    text TEXT NOT NULL,
    creation_date TEXT NOT NULL,
    score INTEGER NOT NULL
);
CREATE TABLE post_history (
    id INTEGER PRIMARY KEY,
    post_id INTEGER NOT NULL,
    history_type_id INTEGER NOT NULL,
    text TEXT NOT NULL,
    creation_date TEXT NOT NULL
);
CREATE INDEX idx_comments_post ON comments(post_id, creation_date, id);
CREATE INDEX idx_history_post ON post_history(post_id, creation_date, id);
"""


@dataclass
class LoadReport:
    """Bookkeeping for one build: row counts, skips, referential gaps."""

    n_posts: int = 0
    n_comments: int = 0
    n_history: int = 0
    skipped: list[tuple[str, Optional[int], str]] = field(default_factory=list)
    dangling_comment_ids: list[int] = field(default_factory=list)
    dangling_history_ids: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"posts loaded: {self.n_posts}",
            f"comments loaded: {self.n_comments}",
            f"history rows loaded: {self.n_history}",
            f"rows skipped: {len(self.skipped)}",
        ]
        for table, row_id, reason in self.skipped:
            lines.append(f"  skip {table} id={row_id}: {reason}")
        lines.append(f"dangling comments (post_id not in posts): {len(self.dangling_comment_ids)}")
        for cid in self.dangling_comment_ids:
            lines.append(f"  comment {cid}")
        lines.append(f"dangling history rows (post_id not in posts): {len(self.dangling_history_ids)}")
        for hid in self.dangling_history_ids:
            lines.append(f"  history {hid}")
        return "\n".join(lines) + "\n"


class Question(NamedTuple):
    """The parent post's fields an answer's checks read."""

    post_type_id: int
    title: Optional[str]
    body: str
    creation_date: str


class AnswerThread(NamedTuple):
    """One answer with its parent post (None when missing), its comments
    and its body revisions (history types 2 and 5), each list ordered by
    (creation_date, id). Lists not asked for are empty."""

    answer: PostRecord
    question: Optional[Question]
    comments: list[CommentRecord]
    revisions: list[PostHistoryRecord]


class _ByPost:
    """Records of one scan ordered by post_id, handed out per post for
    ascending post ids; records of posts never asked for are skipped."""

    def __init__(self, records: Iterator):
        self._groups = groupby(records, key=attrgetter("post_id"))
        self._post_id, self._records = next(self._groups, (None, ()))

    def take(self, post_id: int) -> list:
        while self._post_id is not None and self._post_id < post_id:
            self._post_id, self._records = next(self._groups, (None, ()))
        if self._post_id != post_id:
            return []
        return list(self._records)


class RecordStore:
    """Read view over a sealed store directory."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.load_report: Optional[LoadReport] = None
        meta_path = self.path / _META_NAME
        if not meta_path.exists():
            raise StoreError(f"not a record store: {self.path} (missing {_META_NAME})")
        try:
            self.meta = json.loads(meta_path.read_bytes().decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise StoreError(f"{meta_path}: not a UTF-8 JSON store seal ({exc})") from None
        if type(self.meta) is not dict:
            raise StoreError(f"{meta_path}: expected a JSON object")
        if type(self.meta.get("format_version")) is not int or self.meta["format_version"] != FORMAT_VERSION:
            raise StoreError(f"{meta_path}: unsupported store version {self.meta.get('format_version')!r}")
        if self.meta.get("sealed") is not True:
            raise StoreError(f"store at {self.path} was never sealed")
        db_path = self.path / _DB_NAME
        try:  # a missing file fails to connect, a corrupt one at its first read
            self._conn = sqlite3.connect(db_path.absolute().as_uri() + "?mode=ro", uri=True)
            rows = {table: self.count(table) for table in _TABLES}
        except sqlite3.DatabaseError as exc:
            if hasattr(self, "_conn"):
                self.close()
            raise StoreError(f"{db_path}: not a readable store database ({exc})") from None
        counts = self.meta.get("counts")
        for table, held in rows.items():
            claimed = counts.get(table) if type(counts) is dict else None
            if type(claimed) is not int or claimed != held:
                self.close()
                raise StoreError(f"{meta_path}: the seal counts {claimed!r} {table} rows, the database holds {held}")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- counts ---------------------------------------------------------

    def count(self, table: str) -> int:
        if table not in _TABLES:
            raise StoreError(f"unknown table {table!r}")
        return self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    # -- primary lookups --------------------------------------------------

    def get_post(self, post_id: int) -> Optional[PostRecord]:
        row = self._conn.execute("SELECT * FROM posts WHERE id = ?", (post_id,)).fetchone()
        return PostRecord._make(row) if row else None

    def iter_posts(self) -> Iterator[PostRecord]:
        yield from map(PostRecord._make, self._conn.execute("SELECT * FROM posts ORDER BY id"))

    def iter_answers(self, min_score: Optional[int] = None) -> Iterator[PostRecord]:
        sql = "SELECT * FROM posts WHERE post_type_id = 2"
        args: tuple = ()
        if min_score is not None:
            sql += " AND score >= ?"
            args = (min_score,)
        yield from map(PostRecord._make, self._conn.execute(sql + " ORDER BY id", args))

    # -- secondary indices ------------------------------------------------

    def answer_ids_for(self, question_id: int) -> list[int]:
        """Answer ids of one question, by a scan: no stage reads answers by
        parent, so the store keeps no index for it."""
        rows = self._conn.execute(
            "SELECT id FROM posts WHERE parent_id = ? ORDER BY id", (question_id,)
        ).fetchall()
        return [r[0] for r in rows]

    def comments_for(self, post_id: int) -> list[CommentRecord]:
        rows = self._conn.execute(
            "SELECT * FROM comments WHERE post_id = ? ORDER BY creation_date, id", (post_id,)
        ).fetchall()
        return list(map(CommentRecord._make, rows))

    def comment_count_for(self, post_id: int) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM comments WHERE post_id = ?", (post_id,)
        ).fetchone()[0]

    def history_for(self, post_id: int) -> list[PostHistoryRecord]:
        rows = self._conn.execute(
            "SELECT * FROM post_history WHERE post_id = ? ORDER BY creation_date, id", (post_id,)
        ).fetchall()
        return list(map(PostHistoryRecord._make, rows))

    # -- merged scans ------------------------------------------------------

    def iter_threads(
        self, min_score: Optional[int] = None, *, comments: bool = False, history: bool = False
    ) -> Iterator[AnswerThread]:
        """Every answer (with ``score >= min_score``) in id order, joined
        with its parent post and, when asked for, its comments and body
        revisions.

        One ordered scan per table, merged here (a sort-merge join), in
        place of point reads per answer.
        """
        sql = (
            f"SELECT a.*, {', '.join('q.' + f for f in Question._fields)}"
            " FROM posts a LEFT JOIN posts q ON q.id = a.parent_id WHERE a.post_type_id = 2"
        )
        args: tuple = ()
        if min_score is not None:
            sql += " AND a.score >= ?"
            args = (min_score,)
        answers = self._conn.execute(sql + " ORDER BY a.id", args)
        order = " ORDER BY post_id, creation_date, id"
        comment_rows = revision_rows = None
        if comments:
            rows = self._conn.execute("SELECT * FROM comments" + order)
            comment_rows = _ByPost(map(CommentRecord._make, rows))
        if history:
            rows = self._conn.execute("SELECT * FROM post_history WHERE history_type_id IN (2, 5)" + order)
            revision_rows = _ByPost(map(PostHistoryRecord._make, rows))
        split = len(PostRecord._fields)
        for row in answers:
            answer = PostRecord._make(row[:split])
            question = None
            if row[split] is not None:
                question = Question._make(row[split:])
            yield AnswerThread(
                answer,
                question,
                comment_rows.take(answer.id) if comment_rows else [],
                revision_rows.take(answer.id) if revision_rows else [],
            )


def _insert_all(conn: sqlite3.Connection, table: str, record_type: type, records: Iterable) -> int:
    """Insert inside the build's one transaction, naming the id on duplicates."""
    last = None

    def pulled() -> Iterator[tuple]:
        nonlocal last
        for last in records:
            # sqlite3 binds exact tuples on its fast path, not tuple subclasses
            yield tuple(last)

    sql = f"INSERT INTO {table} VALUES ({','.join('?' * len(record_type._fields))})"
    try:
        return conn.executemany(sql, pulled()).rowcount
    except sqlite3.IntegrityError as exc:
        # executemany stops at the failing row, the last one it pulled
        if "UNIQUE" in str(exc):
            raise DuplicateIdError(table, last.id) from exc
        raise StoreError(f"integrity error in {table}: {exc}") from exc


def build_store(
    post_iter: Iterable[PostRecord],
    comment_iter: Iterable[CommentRecord],
    history_iter: Iterable[PostHistoryRecord],
    path: str | Path,
    *,
    skipped: Iterable[tuple[str, Optional[int], str]] = (),
) -> RecordStore:
    """Load parsed records into a fresh sealed store at ``path``.

    Rebuilds from scratch each time, so re-running on identical inputs is
    idempotent. Every row goes in one transaction, committed at the end.
    Comments and history rows whose ``post_id`` is unknown are kept but
    listed in the load report. Duplicate primary ids abort with
    :class:`DuplicateIdError`. ``skipped`` lists the rows the caller could
    not parse, as ``(table, row id, reason)``; it is read after the record
    iterators are drained, so they may append to it as they go.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    # Unseal before touching the database, so a rebuild that fails part-way
    # leaves a store that readers refuse rather than old counts over new rows.
    (path / _META_NAME).unlink(missing_ok=True)
    (path / _REPORT_NAME).unlink(missing_ok=True)
    db_path = path / _DB_NAME
    db_path.unlink(missing_ok=True)

    conn = sqlite3.connect(db_path)
    try:
        conn.executescript(_SCHEMA)
        report = LoadReport()
        report.n_posts = _insert_all(conn, "posts", PostRecord, post_iter)
        report.n_comments = _insert_all(conn, "comments", CommentRecord, comment_iter)
        report.n_history = _insert_all(conn, "post_history", PostHistoryRecord, history_iter)

        report.dangling_comment_ids = [
            r[0]
            for r in conn.execute(
                "SELECT c.id FROM comments c LEFT JOIN posts p ON c.post_id = p.id"
                " WHERE p.id IS NULL ORDER BY c.id"
            )
        ]
        report.dangling_history_ids = [
            r[0]
            for r in conn.execute(
                "SELECT h.id FROM post_history h LEFT JOIN posts p ON h.post_id = p.id"
                " WHERE p.id IS NULL ORDER BY h.id"
            )
        ]
        conn.commit()
    finally:
        conn.close()

    report.skipped.extend(skipped)
    with replacing(path / _REPORT_NAME, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    meta = {
        "format_version": FORMAT_VERSION,
        "sealed": True,
        "counts": {
            "posts": report.n_posts,
            "comments": report.n_comments,
            "post_history": report.n_history,
        },
    }
    with replacing(path / _META_NAME, "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    store = RecordStore(path)
    store.load_report = report
    return store
