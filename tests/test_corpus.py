"""Corpus building: cleaning, filtering, assembly, stats, serialization."""

import hashlib
import json
import logging
import re
import time
from html import unescape

import numpy as np
import pytest

from conftest import answer_row, as_dump_row, comment_row, question_row, store_from_rows, ts
from sopipeline import bpe, corpus, shards
from sopipeline.corpus import (
    SEPARATOR,
    PretrainSample,
    assemble_sample,
    build_samples,
    clean_comment_text,
    clean_text,
    corpus_stats,
    filter_answers,
    read_corpus_jsonl,
    write_corpus,
)
from sopipeline.dump_ingest import POST_ANSWER, parse_comment, parse_post
from sopipeline.errors import ShardError, UsageError
from sopipeline.mining import extract_code


class TestCleanText:
    def test_url_replaced(self):
        assert clean_text("<p>see https://x.io/a?q=1 now</p>") == "see [URL] now"

    def test_www_url_replaced(self):
        assert clean_text("go to www.example.org/page please") == "go to [URL] please"

    def test_email_replaced(self):
        assert clean_text("contact me@host.com") == "contact [EMAIL]"

    def test_escaped_special_literals_never_encode_as_specials(self):
        # a dump escapes "<" in prose, so an answer about BERT's <MASK>
        # reads the literal once its entities are decoded; code stays verbatim
        body = "<p>Use the &lt;MASK&gt; token, then &lt;RS&gt;, &lt;PAD&gt; or &lt;CLS&gt;.</p><code>&lt;MASK&gt;</code>"
        text = clean_text(body)
        assert text == "Use the <mask> token, then <rs>, <pad> or <cls>. &lt;MASK&gt;"
        assert min(bpe.BpeVocab([]).encode(text)) >= bpe.BYTE_BASE

    def test_code_content_untouched(self):
        body = '<p>try</p><code>requests.get("https://x.io")</code>'
        assert clean_text(body) == 'try requests.get("https://x.io")'

    def test_tags_removed_entities_decoded(self):
        assert clean_text("<p>a &amp; b</p><div>c</div>") == "a & b c"

    def test_whitespace_collapsed(self):
        assert clean_text("<p>a\n\n   b\t c</p>") == "a b c"

    def test_unbalanced_code_keeps_remainder(self):
        body = "<p>intro</p><code>x = 1\nwhile True: pass"
        assert clean_text(body) == "intro x = 1\nwhile True: pass"

    def test_unbalanced_warning_names_post(self, caplog):
        caplog.set_level(logging.WARNING, logger="sopipeline.corpus")
        assert clean_text("<p>a</p><code>x = 1", post_id=4242) == "a x = 1"
        assert [r.getMessage() for r in caplog.records] == [
            "post 4242: unbalanced <code> tag; keeping remainder as code"
        ]

    def test_entities_inside_code_preserved_verbatim(self):
        body = "<code>if a &amp;&amp; b</code>"
        assert clean_text(body) == "if a &amp;&amp; b"

    def test_code_preservation_property(self):
        # random bodies with marked code spans: code substring survives exactly
        rng = np.random.default_rng(0)
        alphabet = "abc <>&;\"'\n\t=+/"
        for _ in range(200):
            code = "".join(rng.choice(list("xyz123 \n=+*&;"), size=rng.integers(1, 40)))
            code = code.replace("</", "<\\")  # keep the span well-formed
            prose = "".join(rng.choice(list(alphabet), size=rng.integers(0, 30)))
            prose = prose.replace("<", "(").replace(">", ")")
            body = f"<p>{prose}</p><code>{code}</code><p>tail</p>"
            cleaned = clean_text(body)
            assert code in cleaned

    def test_cleaning_flags(self):
        body = "<p>https://x.io and me@host.com</p>"
        assert clean_text(body, replace_urls=False) == "https://x.io and [EMAIL]"
        assert clean_text(body, replace_emails=False) == "[URL] and me@host.com"

    def test_long_dotted_run_is_linear(self):
        # the single-regex email pattern took seconds here (quadratic)
        body = "<p>" + "a." * 30_000 + "</p>"
        start = time.perf_counter()
        assert clean_text(body) == "a." * 30_000
        assert time.perf_counter() - start < 0.5

    def test_email_matches_single_regex_oracle(self):
        oracle = re.compile(r"\b[\w.+-]+@[\w-]+(?:\.[\w-]+)+\b")
        rng = np.random.default_rng(3)
        for alphabet in ("a.+-@ x", "a.+-@ x_é", "a.@"):
            for _ in range(3000):
                text = "".join(rng.choice(list(alphabet), size=int(rng.integers(0, 40))))
                expected = " ".join(oracle.sub("[EMAIL]", text).split())
                assert clean_comment_text(text, replace_urls=False) == expected, repr(text)


_CODE_OPEN = re.compile(r"<code\b[^>]*>", re.IGNORECASE)
_CODE_CLOSE = re.compile(r"</code\s*>", re.IGNORECASE)


def oracle_clean_text(body: str) -> tuple[str, bool]:
    """The cleaning loop before the shared splitter; (text, unclosed)."""
    pieces: list[str] = []
    pos = 0
    while True:
        open_m = _CODE_OPEN.search(body, pos)
        if open_m is None:
            pieces.append(corpus._clean_fragment(body[pos:], True, True))
            break
        pieces.append(corpus._clean_fragment(body[pos : open_m.start()], True, True))
        close_m = _CODE_CLOSE.search(body, open_m.end())
        if close_m is None:
            pieces.append(body[open_m.end() :])
            return "".join(pieces).strip(), True
        pieces.append(body[open_m.end() : close_m.start()])
        pos = close_m.end()
    return "".join(pieces).strip(), False


def oracle_extract_code(body: str) -> str:
    """The miner's own code-span loop before the shared splitter."""
    spans = []
    pos = 0
    while True:
        open_m = _CODE_OPEN.search(body, pos)
        if open_m is None:
            break
        close_m = _CODE_CLOSE.search(body, open_m.end())
        if close_m is None:
            spans.append(body[open_m.end() :])
            break
        spans.append(body[open_m.end() : close_m.start()])
        pos = close_m.end()
    return "\n".join(spans)


def test_split_code_matches_old_loops(caplog):
    pieces = [
        "<code>", "<CODE>", "<Code>", '<code class="py">', "<code data-x='a>b'>", "<code\n>",
        "</code>", "</CODE>", "</code >", "</code\n\t>", "</Code  >",
        "<codex>", "</codex>", "<code", "</code", "<pre>", "</pre>", "<p>", "<",  ">",
        "x = 1", "a &amp; b", " see https://ex.io/x ", "me@host.com", "\n", "  ", "é",
    ]
    rng = np.random.default_rng(11)
    caplog.set_level(logging.WARNING, logger="sopipeline.corpus")
    for _ in range(4000):
        body = "".join(rng.choice(pieces, size=int(rng.integers(0, 14))))
        caplog.clear()
        expected, unclosed = oracle_clean_text(body)
        assert clean_text(body) == expected, repr(body)
        assert len(caplog.records) == int(unclosed), repr(body)
        assert extract_code(body) == oracle_extract_code(body), repr(body)


_ORACLE_TAG = re.compile(r"<[^>]*>")
_ORACLE_URL = re.compile(r"\b(?:(?:https?|ftp)://|www\.)\S+", re.IGNORECASE)
_ORACLE_EMAIL = re.compile(r"\b[\w.+-]+@[\w-]+(?:\.[\w-]+)+\b")
_ORACLE_WS = re.compile(r"\s+")
_ORACLE_SPECIAL = re.compile("<PAD>|<MASK>|<RS>|<CLS>")


def oracle_defuse(text: str) -> str:
    return _ORACLE_SPECIAL.sub(lambda m: m.group().lower(), text)


def oracle_fragment(fragment: str, replace_urls: bool, replace_emails: bool) -> str:
    """Fragment cleaning as one regex per pass, each run on every text."""
    text = oracle_defuse(unescape(_ORACLE_TAG.sub(" ", fragment)))
    if replace_urls:
        text = _ORACLE_URL.sub("[URL]", text)
    if replace_emails:
        text = _ORACLE_EMAIL.sub("[EMAIL]", text)
    return _ORACLE_WS.sub(" ", text)


def oracle_comment(text: str, replace_urls: bool, replace_emails: bool) -> str:
    """Comment cleaning as one regex per pass, each run on every text."""
    if replace_urls:
        text = _ORACLE_URL.sub("[URL]", text)
    if replace_emails:
        text = _ORACLE_EMAIL.sub("[EMAIL]", text)
    text = oracle_defuse(text)
    return _ORACLE_WS.sub(" ", text).strip()


@pytest.mark.parametrize("replace_urls", [True, False])
@pytest.mark.parametrize("replace_emails", [True, False])
def test_skipped_passes_match_regex_oracle(replace_urls, replace_emails):
    # the URL and email passes run only on text holding their trigger, and
    # whitespace collapses through str.split: no text may tell the difference
    flags = dict(replace_urls=replace_urls, replace_emails=replace_emails)
    alphabet = [*"wW.:/@<>&; _é ſ", *"\t\n\x0b\x0c\x1c\x85\xa0 　",
                "http", "HTTPS", "ftp", "wWw", "&nbsp;", "&#58;", "<RS>", "&lt;MASK&gt;"]
    rng = np.random.default_rng(25)
    texts = ["", " ", "\n", "\t\x85　", " a ", "\xa0x@y.z", "www.x ", "　http://x\x1c"]
    texts += ["".join(rng.choice(alphabet, size=int(rng.integers(0, 24)))) for _ in range(5000)]
    for text in texts:
        # between two code spans a fragment's edge spaces survive the strip
        body = f"<code>a</code>{text}<code>b</code>"
        assert clean_text(body, **flags) == f"a{oracle_fragment(text, **flags)}b", repr(body)
        assert clean_text(text, **flags) == oracle_fragment(text, **flags).strip(), repr(text)
        assert clean_comment_text(text, **flags) == oracle_comment(text, **flags), repr(text)


def test_regex_whitespace_is_str_isspace():
    # every code point, as one string: \s matches exactly the isspace() set
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


class TestCleanCommentText:
    def test_url_and_email_abstracted(self):
        got = clean_comment_text("see https://x.io/a or mail me@host.com")
        assert got == "see [URL] or mail [EMAIL]"

    def test_plain_angle_brackets_survive(self):
        # comments are plain text, not HTML: generics must not be eaten
        assert clean_comment_text("use List<String> here") == "use List<String> here"

    def test_whitespace_collapsed(self):
        assert clean_comment_text("a\n\n  b\t c") == "a b c"

    def test_separator_literal_defused(self):
        assert clean_comment_text("tricky <RS> comment") == "tricky <rs> comment"

    def test_every_angled_special_literal_defused(self):
        # [URL] typed by a user still encodes as the placeholder cleaning makes
        text = clean_comment_text("<PAD> <MASK> <CLS> <RS> [URL]")
        assert text == "<pad> <mask> <cls> <rs> [URL]"
        assert [i for i in bpe.BpeVocab([]).encode(text) if i < bpe.BYTE_BASE] == [bpe.URL_ID]


@pytest.fixture
def filter_store(tmp_path):
    posts = [
        question_row(1, score=100, created=ts(0)),
        answer_row(10, 1, score=1, created=ts(1)),   # yes: score 1, one comment
        answer_row(11, 1, score=0, created=ts(1)),   # no: zero score
        answer_row(12, 1, score=5, created=ts(1)),   # no: zero comments
        answer_row(13, 1, score=2, created=ts(1)),   # yes: two comments
    ]
    comments = [
        comment_row(100, 10, "c0", created=ts(2)),
        comment_row(101, 11, "c1", created=ts(2)),
        comment_row(102, 11, "c2", created=ts(2)),
        comment_row(103, 11, "c3", created=ts(2)),
        comment_row(104, 13, "late", created=ts(9)),
        comment_row(105, 13, "early", created=ts(3)),
        comment_row(106, 1, "on the question", created=ts(2)),
    ]
    return store_from_rows(tmp_path, posts, comments)


class TestFilterAnswers:
    def test_spec_examples(self, filter_store):
        got = {a.id for a, _ in filter_answers(filter_store)}
        assert got == {10, 13}

    def test_comments_come_sorted(self, filter_store):
        by_id = {a.id: comments for a, comments in filter_answers(filter_store)}
        assert [c.text for c in by_id[13]] == ["early", "late"]

    def test_question_never_yielded(self, filter_store):
        assert all(a.post_type_id == POST_ANSWER for a, _ in filter_answers(filter_store))

    def test_matches_brute_force_on_random_fixture(self, tmp_path):
        rng = np.random.default_rng(42)
        posts, comments = [], []
        cid = 10_000
        for q in range(60):
            qid = 1 + q
            posts.append(question_row(qid, created=ts(0)))
        for i in range(400):
            aid = 1000 + i
            qid = 1 + int(rng.integers(0, 60))
            score = int(rng.integers(-2, 5))
            posts.append(answer_row(aid, qid, score=score, created=ts(1)))
            for _ in range(int(rng.integers(0, 4))):
                cid += 1
                comments.append(comment_row(cid, aid, f"c{cid}", created=ts(2)))
        store = store_from_rows(tmp_path, posts, comments, name="rand")

        n_comments = {}
        for c in comments:
            n_comments[c["PostId"]] = n_comments.get(c["PostId"], 0) + 1
        brute = {
            p["Id"]
            for p in posts
            if p["PostTypeId"] == 2 and p["Score"] >= 1 and n_comments.get(p["Id"], 0) >= 1
        }
        got = {a.id for a, _ in filter_answers(store)}
        assert got == brute


class TestAssembleSample:
    def _answer(self, body="<p>A</p>"):
        return parse_post(as_dump_row(answer_row(50, 1, body=body, created=ts(1))))

    def _comment(self, cid, text, days):
        return parse_comment(as_dump_row(comment_row(cid, 50, text, created=ts(days))))

    def test_two_comments(self):
        sample = assemble_sample(
            self._answer(), [self._comment(1, "c1", 2), self._comment(2, "c2", 3)]
        )
        assert sample.text == "A <RS> c1 <RS> c2"
        assert sample.n_comments == 2

    def test_single_separator(self):
        sample = assemble_sample(self._answer(), [self._comment(1, "c", 2)])
        assert sample.text.count(SEPARATOR) == 1

    def test_date_shuffled_comments_sorted(self):
        sample = assemble_sample(
            self._answer(),
            [self._comment(1, "third", 9), self._comment(2, "first", 1), self._comment(3, "second", 5)],
        )
        assert sample.text == "A <RS> first <RS> second <RS> third"

    def test_separator_count_always_matches(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            k = int(rng.integers(1, 6))
            comments = [self._comment(i, f"text {i} <RS> sneaky", i + 1) for i in range(k)]
            sample = assemble_sample(self._answer("<p>body <RS> here</p>"), comments)
            # a literal <RS> is tag-stripped in body markup and defused
            # (lowercased) in plain-text comments
            assert sample.text.count(SEPARATOR) == sample.n_comments == k
            assert "<rs>" in sample.text

    def test_empty_answer_with_code_comment_kept(self):
        sample = assemble_sample(self._answer("<p></p>"), [self._comment(1, "still useful", 2)])
        assert sample is not None
        assert SEPARATOR in sample.text

    def test_fully_empty_skipped(self):
        sample = assemble_sample(self._answer("<p>  </p>"), [self._comment(1, "  ", 2)])
        assert sample is None

    def test_no_comments_rejected(self):
        with pytest.raises(UsageError):
            assemble_sample(self._answer(), [])

    def test_unbalanced_warning_names_answer(self, caplog):
        caplog.set_level(logging.WARNING, logger="sopipeline.corpus")
        sample = assemble_sample(self._answer("<code>x = 1"), [self._comment(1, "c", 2)])
        assert sample.text == "x = 1 <RS> c"
        assert [r.getMessage() for r in caplog.records] == [
            "post 50: unbalanced <code> tag; keeping remainder as code"
        ]


class TestCorpusStats:
    def _samples(self, comment_counts, lengths=None):
        out = []
        for i, k in enumerate(comment_counts):
            text = "x" * (lengths[i] if lengths else 10)
            out.append(PretrainSample(answer_id=i, text=text, n_comments=k))
        return out

    def test_mean_median(self):
        stats = corpus_stats(self._samples([1, 2, 5]))
        assert stats.comments_per_post_mean == pytest.approx(8 / 3)
        assert stats.comments_per_post_median == 2

    def test_bucket_for_length_600(self):
        stats = corpus_stats(self._samples([1], lengths=[600]))
        assert stats.length_histogram == {"0-512": 0, "513-1024": 1, "1025-2048": 0, ">2048": 0}

    def test_each_edge_closes_its_bucket(self):
        # "lo+1-hi" holds hi itself; hi + 1 opens the next bucket
        stats = corpus_stats(self._samples([1] * 8, lengths=[0, 512, 513, 1024, 1025, 2048, 2049, 4096]))
        assert stats.length_histogram == {"0-512": 2, "513-1024": 2, "1025-2048": 2, ">2048": 2}

    def test_histogram_partitions(self):
        rng = np.random.default_rng(5)
        lengths = [int(x) for x in rng.integers(1, 5000, size=300)]
        stats = corpus_stats(self._samples([1] * 300, lengths=lengths))
        assert sum(stats.length_histogram.values()) == stats.n_samples == 300

    def test_token_buckets_with_tokenizer(self):
        vocab = bpe.BpeVocab(merges=[])
        samples = self._samples([1], lengths=[600])
        stats = corpus_stats(samples, tokenizer=vocab)
        assert stats.total_tokens == 600  # byte-level identity vocab

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.n_samples == 0
        assert stats.comments_per_post_mean == 0.0
        assert sum(stats.length_histogram.values()) == 0

    def test_bad_edges(self):
        with pytest.raises(UsageError):
            corpus_stats([], bucket_edges=(512, 512))

    @pytest.mark.parametrize("edges", [(-5, 10), (0,), (0, 512)])
    def test_first_edge_must_be_positive(self, edges):
        # (-5, 10) used to give the buckets "0--5", "-4-10" and ">10"
        with pytest.raises(UsageError, match=f"first edge {edges[0]}$"):
            corpus_stats(self._samples([1]), bucket_edges=edges)


class TestWriteCorpus:
    def _two_samples(self):
        return [
            PretrainSample(answer_id=1, text="a <RS> b", n_comments=1),
            PretrainSample(answer_id=2, text="c <RS> d", n_comments=1),
        ]

    def test_jsonl_roundtrip(self, tmp_path):
        out = tmp_path / "c.jsonl"
        manifest = write_corpus(self._two_samples(), out)
        back = list(read_corpus_jsonl(out))
        assert [(s.answer_id, s.text, s.n_comments) for s in back] == [
            (1, "a <RS> b", 1),
            (2, "c <RS> d", 1),
        ]
        assert manifest["n_samples"] == 2
        assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_manifest_hash_spans_read_blocks(self, tmp_path):
        # larger than one 1 MiB read of the hashing loop
        samples = [PretrainSample(answer_id=i, text="é" * 3000 + str(i), n_comments=1) for i in range(400)]
        out = tmp_path / "big.jsonl"
        manifest = write_corpus(samples, out)
        assert out.stat().st_size > 2 << 20
        assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        m1 = write_corpus(self._two_samples(), a)
        m2 = write_corpus(self._two_samples(), b)
        assert a.read_bytes() == b.read_bytes()
        assert m1["sha256"] == m2["sha256"]

    def test_shard_index(self, tmp_path):
        vocab = bpe.BpeVocab(merges=[])
        samples = [
            PretrainSample(answer_id=1, text="0123456789", n_comments=1),      # 10 tokens
            PretrainSample(answer_id=2, text="abcdefghijkl", n_comments=1),    # 12 tokens
        ]
        out = tmp_path / "c.sotk"
        write_corpus(samples, out, fmt="shards", tokenizer=vocab)
        index = json.loads(shards.index_path(out).read_text())
        assert index == {"version": 2, "n_samples": 2, "total_tokens": 22, "lengths": [10, 12]}
        reader = shards.ShardReader(out, expected_checksum=vocab.checksum)
        seqs = list(reader)
        assert [len(s) for s in seqs] == [10, 12]
        assert vocab.decode(seqs[0]) == "0123456789"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(UsageError):
            write_corpus([], tmp_path / "x", fmt="parquet")

    def test_shard_reader_reiterable(self, tmp_path):
        # each iteration opens its own handle: safe for concurrent readers
        vocab = bpe.BpeVocab(merges=[])
        out = tmp_path / "c.sotk"
        write_corpus(
            [PretrainSample(answer_id=1, text="abc", n_comments=1)],
            out,
            fmt="shards",
            tokenizer=vocab,
        )
        reader = shards.ShardReader(out)
        first = [s.tolist() for s in reader]
        second = [s.tolist() for s in reader]
        assert first == second
        iter_a, iter_b = iter(reader), iter(reader)
        assert next(iter_a).tolist() == next(iter_b).tolist()

    def test_manifest_extra_counts_final(self, tmp_path, filter_store):
        counters: dict = {}
        samples = build_samples(filter_store, counters=counters)
        manifest = write_corpus(samples, tmp_path / "c.jsonl", manifest_extra=counters)
        assert "skipped_empty" in manifest


class TestShardReader:
    def _shard(self, tmp_path, sequences):
        path = tmp_path / "s.sotk"
        shards.write_token_shard(path, sequences, b"\x01" * 8)
        return path

    def test_out_of_range_id_leaves_the_earlier_shard(self, tmp_path):
        path = self._shard(tmp_path, [[7, 8], [9]])
        before = path.read_bytes(), shards.index_path(path).read_bytes()
        with pytest.raises(ShardError, match="sample 1 holds token id -1"):
            shards.write_token_shard(path, [[1, 2], [-1]], b"\x01" * 8)
        assert (path.read_bytes(), shards.index_path(path).read_bytes()) == before
        assert [s.tolist() for s in shards.ShardReader(path)] == [[7, 8], [9]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.sotk", "s.sotk.idx.json"]

    def test_out_of_range_id_writes_nothing_new(self, tmp_path):
        path = tmp_path / "s.sotk"
        for bad in ([-1], [2**32]):
            with pytest.raises(ShardError, match="sample 1"):
                shards.write_token_shard(path, [[1, 2], bad], b"\x01" * 8)
        assert list(tmp_path.iterdir()) == []

    def test_header_cut_short_is_refused_at_open(self, tmp_path):
        path = self._shard(tmp_path, [[7, 8]])
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(ShardError, match="bad magic"):
            shards.ShardReader(path)

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_payload_cut_mid_word_raises(self, tmp_path, cut):
        path = self._shard(tmp_path, [[7, 8], [9]])
        path.write_bytes(path.read_bytes()[:-cut])
        reader = shards.ShardReader(path)
        with pytest.raises(ShardError, match=str(path)):
            list(reader)

    def test_count_word_past_the_end_raises(self, tmp_path):
        path = self._shard(tmp_path, [[7, 8], [9, 10, 11]])
        blob = bytearray(path.read_bytes())
        blob[13 + 12 : 13 + 16] = (4).to_bytes(4, "little")  # second sample claims 4 of its 3 ids
        path.write_bytes(bytes(blob))
        reader = shards.ShardReader(path)
        it = iter(reader)
        assert next(it).tolist() == [7, 8]
        with pytest.raises(ShardError, match=str(path)):
            next(it)

    def test_zero_sample_shard_yields_nothing(self, tmp_path):
        path = self._shard(tmp_path, [])
        assert path.stat().st_size == 13
        assert list(shards.ShardReader(path)) == []

    def test_sequences_are_read_only_uint32_arrays(self, tmp_path):
        path = self._shard(tmp_path, [[7, 8, 2**32 - 1], [], [9]])
        seqs = list(shards.ShardReader(path))
        assert [s.tolist() for s in seqs] == [[7, 8, 2**32 - 1], [], [9]]
        for s in seqs:
            assert isinstance(s, np.ndarray) and s.dtype == np.uint32
            assert not s.flags.writeable
            with pytest.raises(ValueError):
                s[:1] = 0
