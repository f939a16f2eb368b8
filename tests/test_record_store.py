"""Record store: build, indices, referential bookkeeping."""

import io
import json
import os
import re
import sqlite3
from pathlib import Path

import pytest

from conftest import answer_row, comment_row, history_row, question_row, rows_xml, store_from_rows, ts
from sopipeline.cli import main
from sopipeline.dump_ingest import (
    CommentRecord,
    PostHistoryRecord,
    PostRecord,
    parse_comment,
    parse_history,
    parse_post,
    stream_rows,
)
from sopipeline.errors import DuplicateIdError, StoreError
from sopipeline.record_store import FORMAT_VERSION, RecordStore, build_store


@pytest.fixture
def small_store(tmp_path):
    posts = [
        question_row(1, created=ts(0)),
        question_row(2, created=ts(0)),
        answer_row(10, 1, score=2, created=ts(1)),
        answer_row(11, 1, score=0, created=ts(2)),
        answer_row(12, 2, score=1, created=ts(3)),
    ]
    comments = [
        comment_row(100, 10, "later", created=ts(5)),
        comment_row(101, 10, "earlier", created=ts(4)),
        comment_row(102, 12, "only one", created=ts(4)),
        comment_row(103, 999, "dangling", created=ts(4)),
    ]
    history = [
        history_row(200, 10, 2, "v0", created=ts(1)),
        history_row(201, 10, 5, "v1", created=ts(6)),
    ]
    return store_from_rows(tmp_path, posts, comments, history)


class TestBuildStore:
    def test_counts_match_fixture(self, small_store):
        assert small_store.count("posts") == 5
        assert small_store.count("comments") == 4
        assert small_store.count("post_history") == 2

    def test_parent_index(self, small_store):
        assert small_store.answer_ids_for(1) == [10, 11]
        assert small_store.answer_ids_for(2) == [12]
        assert small_store.answer_ids_for(999) == []

    def test_comments_sorted_by_creation_date(self, small_store):
        texts = [c.text for c in small_store.comments_for(10)]
        assert texts == ["earlier", "later"]

    def test_comment_index_coherence(self, small_store):
        for post in small_store.iter_posts():
            for comment in small_store.comments_for(post.id):
                assert comment.post_id == post.id

    def test_history_sorted(self, small_store):
        kinds = [h.text for h in small_store.history_for(10)]
        assert kinds == ["v0", "v1"]

    def test_dangling_comment_flagged(self, small_store):
        assert small_store.load_report.dangling_comment_ids == [103]
        assert "dangling comments" in (small_store.path / "load_report.txt").read_text()

    def test_roundtrip_every_row_once(self, small_store):
        ids = sorted(p.id for p in small_store.iter_posts())
        assert ids == [1, 2, 10, 11, 12]

    def test_empty_iterators_valid(self, tmp_path):
        store = build_store([], [], [], tmp_path / "empty")
        assert store.count("posts") == 0
        assert store.count("comments") == 0

    def test_duplicate_post_id(self, tmp_path):
        posts = [question_row(7, created=ts(0)), question_row(7, created=ts(1))]
        with pytest.raises(DuplicateIdError) as exc_info:
            store_from_rows(tmp_path, posts, name="dup")
        assert exc_info.value.row_id == 7
        assert exc_info.value.table == "posts"

    def test_duplicate_across_batches(self, tmp_path):
        # first occurrence lands in an earlier committed batch
        posts = [question_row(i, created=ts(0)) for i in range(1500)]
        posts.append(question_row(3, created=ts(1)))
        with pytest.raises(DuplicateIdError) as exc_info:
            store_from_rows(tmp_path, posts, name="dup2")
        assert exc_info.value.row_id == 3

    @pytest.mark.parametrize("first", [250, 1234], ids=["earlier-batch", "same-batch"])
    def test_duplicate_mid_later_batch_rolls_back_everything(self, tmp_path, first):
        comments = [comment_row(100 + i, 1, f"c{i}", created=ts(2)) for i in range(2600)]
        comments[1700] = comment_row(100 + first, 1, "again", created=ts(3))
        comments[1900] = comment_row(100 + 5, 1, "later duplicate", created=ts(3))
        with pytest.raises(DuplicateIdError) as exc_info:
            store_from_rows(tmp_path, [question_row(1, created=ts(0))], comments, name="dup3")
        assert (exc_info.value.table, exc_info.value.row_id) == ("comments", 100 + first)
        with pytest.raises(StoreError, match="missing meta.json"):
            RecordStore(tmp_path / "dup3")
        with sqlite3.connect(tmp_path / "dup3" / "records.db") as conn:
            assert conn.execute("SELECT COUNT(*) FROM posts").fetchone()[0] == 0

    def test_idempotent_rebuild(self, tmp_path):
        posts = [question_row(1, created=ts(0)), answer_row(10, 1, created=ts(1))]
        comments = [comment_row(100, 10, "c", created=ts(2))]
        first = store_from_rows(tmp_path, posts, comments, name="re")
        first.close()
        second = store_from_rows(tmp_path, posts, comments, name="re")
        assert second.count("posts") == 2
        assert second.answer_ids_for(1) == [10]

    def test_path_with_uri_characters(self, tmp_path, monkeypatch):
        """``#``, ``?`` and ``%`` in a store path are its own characters, and
        reopening the store makes no file beside it."""
        monkeypatch.chdir(tmp_path)
        with store_from_rows(Path(), [question_row(1, created=ts(0))], name="a#b?c%41") as store:
            assert store.count("posts") == 1
        with RecordStore(tmp_path / "a#b?c%41") as store:
            assert store.count("posts") == 1
        assert os.listdir(tmp_path) == ["a#b?c%41"]

    def test_sealed_readonly(self, small_store):
        with pytest.raises(Exception):
            small_store._conn.execute("INSERT INTO posts VALUES (99,1,NULL,NULL,0,'t','b',NULL,'x',NULL)")

    def test_unsealed_store_refused(self, small_store):
        meta_path = small_store.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "sealed": False}))
        with pytest.raises(StoreError, match="never sealed"):
            RecordStore(small_store.path)

    @pytest.mark.parametrize("edit", [{"format_version": 1}, {"format_version": True},
                                      {"format_version": float(FORMAT_VERSION)}, {"format_version": str(FORMAT_VERSION)},
                                      {"sealed": "no"}, {"sealed": 1}],
                             ids=["version-1", "version-true", "version-float", "version-str", "sealed-str",
                                  "sealed-int"])
    def test_seal_fields_read_by_exact_type(self, small_store, edit, tmp_path, capsys):
        # 2.0 == 2 and "no" is truthy: a loose check opens these stores
        meta_path = small_store.path / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **edit}))
        with pytest.raises(StoreError):
            RecordStore(small_store.path)
        assert main(["mine", "--store-dir", str(small_store.path), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("counts", [{"posts": 99}, {"comments": 3}, {"post_history": 2.0}, None],
                             ids=["posts-99", "comments-3", "history-float", "missing"])
    def test_seal_counts_checked(self, small_store, counts, tmp_path, capsys):
        # the store holds 5 posts, 4 comments and 2 history rows
        meta_path = small_store.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        if counts is None:
            del meta["counts"]
            table, claimed = "posts", None
        else:
            meta["counts"].update(counts)
            ((table, claimed),) = counts.items()
        meta_path.write_text(json.dumps(meta))
        held = {"posts": 5, "comments": 4, "post_history": 2}[table]
        with pytest.raises(StoreError, match=f"counts {claimed!r} {table} rows, the database holds {held}$"):
            RecordStore(small_store.path)
        assert main(["mine", "--store-dir", str(small_store.path), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("blob", [b'{"format_version": 1, "sea', b"[1, 2]\n", b'{"sealed": "\xff"}\n'],
                             ids=["torn", "not-an-object", "not-utf8"])
    def test_bad_meta_refused_naming_it(self, small_store, blob):
        meta_path = small_store.path / "meta.json"
        meta_path.write_bytes(blob)
        with pytest.raises(StoreError, match=re.escape(str(meta_path))):
            RecordStore(small_store.path)

    def test_open_missing_dir(self, tmp_path):
        with pytest.raises(StoreError):
            RecordStore(tmp_path / "nowhere")

    @pytest.mark.parametrize("damage", ["overwritten", "deleted"])
    def test_unreadable_database_refused(self, small_store, damage, tmp_path, capsys):
        # sqlite3 fails to connect to a missing file, and to read a text file
        db_path = small_store.path / "records.db"
        if damage == "overwritten":
            db_path.write_text("not a database\n" * 100)
        else:
            db_path.unlink()
        with pytest.raises(StoreError, match=re.escape(str(db_path))):
            RecordStore(small_store.path)
        assert main(["mine", "--store-dir", str(small_store.path), "--out", str(tmp_path / "c.jsonl")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {db_path}: ")

    def test_get_post(self, small_store):
        post = small_store.get_post(10)
        assert post.parent_id == 1
        assert small_store.get_post(424242) is None

    def test_iter_answers_score_floor(self, small_store):
        assert [a.id for a in small_store.iter_answers(min_score=1)] == [10, 12]

    def test_store_holds_exactly_the_indexes_its_reads_use(self, tmp_path, monkeypatch):
        # every statement of a build and of the reads the stages and the test oracles make;
        # answer_ids_for is left out: it scans, as no stage calls it
        statements = []
        connect = sqlite3.connect

        def traced(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced)
        with store_from_rows(
            tmp_path,
            [question_row(1, created=ts(0)), answer_row(10, 1, created=ts(1))],
            [comment_row(100, 10, "c", created=ts(2))],
            [history_row(200, 10, 2, "v", created=ts(1))],
        ) as store:
            assert len(list(store.iter_threads(0, comments=True, history=True))) == 1
            store.get_post(1), store.comments_for(10), store.history_for(10), store.comment_count_for(10)
            list(store.iter_answers(0)), list(store.iter_posts())
        monkeypatch.undo()
        db = sqlite3.connect(store.path / "records.db")
        named = set()
        for sql in statements:
            if sql.lstrip().upper().startswith("SELECT"):
                plan = db.execute("EXPLAIN QUERY PLAN " + sql).fetchall()  # traced with its values bound
                named.update(name for row in plan for name in re.findall(r"USING (?:COVERING )?INDEX (\w+)", row[3]))
        indexes = {name for (name,) in db.execute("SELECT name FROM sqlite_master WHERE type = 'index'")}
        db.close()
        assert named == indexes == {"idx_comments_post", "idx_history_post"}


def _parsed(rows, parse):
    return [parse(attrs) for attrs in stream_rows(io.BytesIO(rows_xml(rows)))]


class TestOneLayout:
    """Each table's columns are its record's fields, so a record goes in and
    comes back out as it is."""

    @pytest.mark.parametrize("table, record", [("posts", PostRecord), ("comments", CommentRecord),
                                               ("post_history", PostHistoryRecord)])
    def test_columns_are_the_record_fields(self, small_store, table, record):
        columns = tuple(row[1] for row in small_store._conn.execute(f"PRAGMA table_info({table})"))
        assert columns == record._fields

    def test_parse_store_read_round_trip(self, tmp_path):
        wide = "\U0001F40D snake \U0001D54A"  # outside the Basic Multilingual Plane
        posts = _parsed([
            # only required attributes: every optional field is None (score 0)
            {"Id": 1, "PostTypeId": 1, "Body": "", "CreationDate": ts(0)},
            question_row(2, body=f"<p>{wide}</p>", title=wide, tags="|c++|\U0001F40D|", accepted=3),
            {**answer_row(3, 2, body=wide, score=-2, last_edit=ts(4)), "Tags": "<python><pandas>"},
        ], parse_post)
        comments = _parsed([{"Id": 10, "PostId": 3, "Text": "", "CreationDate": ts(2)},
                            comment_row(11, 3, wide, score=7, created=ts(3))], parse_comment)
        history = _parsed([{"Id": 20, "PostId": 3, "PostHistoryTypeId": 10, "CreationDate": ts(1)},
                           history_row(21, 3, 5, wide, created=ts(4))], parse_history)
        assert posts[0] == PostRecord(1, 1, "", posts[0].creation_date)
        assert (posts[1].tags, posts[2].tags) == ("|c++|\U0001F40D|", "<python><pandas>")
        with build_store(posts, comments, history, tmp_path / "s") as store:
            assert [store.get_post(p.id) for p in posts] == posts
            assert store.comments_for(3) == comments
            assert store.history_for(3) == history
            assert [type(r) for r in (store.get_post(1), *store.comments_for(3), *store.history_for(3))] == [
                PostRecord, CommentRecord, CommentRecord, PostHistoryRecord, PostHistoryRecord]
