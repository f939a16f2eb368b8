"""Record store: build, indices, referential bookkeeping."""

import json
import re
import sqlite3

import pytest

from conftest import answer_row, comment_row, history_row, question_row, store_from_rows, ts
from sopipeline.cli import main
from sopipeline.errors import DuplicateIdError, StoreError
from sopipeline.record_store import RecordStore, build_store


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

    def test_sealed_readonly(self, small_store):
        with pytest.raises(Exception):
            small_store._conn.execute("INSERT INTO posts VALUES (99,1,NULL,NULL,0,'t','b',NULL,'x',NULL)")

    def test_unsealed_store_refused(self, small_store):
        meta_path = small_store.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "sealed": False}))
        with pytest.raises(StoreError, match="never sealed"):
            RecordStore(small_store.path)

    @pytest.mark.parametrize("edit", [{"format_version": True}, {"format_version": 1.0}, {"format_version": "1"},
                                      {"sealed": "no"}, {"sealed": 1}],
                             ids=["version-true", "version-float", "version-str", "sealed-str", "sealed-int"])
    def test_seal_fields_read_by_exact_type(self, small_store, edit, tmp_path, capsys):
        # true == 1 == 1.0 and "no" is truthy: a loose check opens these stores
        meta_path = small_store.path / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **edit}))
        with pytest.raises(StoreError):
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

    def test_get_post(self, small_store):
        post = small_store.get_post(10)
        assert post.parent_id == 1
        assert small_store.get_post(424242) is None

    def test_iter_answers_score_floor(self, small_store):
        assert [a.id for a in small_store.iter_answers(min_score=1)] == [10, 12]
