"""Obsoletion miners against planted fixtures; levenshtein + kappa oracles."""

import logging
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import (
    answer_row,
    code_body,
    comment_row,
    history_row,
    planted_edit,
    question_row,
    store_from_rows,
    ts,
)
from sopipeline.errors import MetricError, UsageError
from sopipeline.mining import (
    AnnotationRecord,
    Heuristic,
    ObsoleteCandidate,
    cohen_kappa,
    export_candidates,
    extract_code,
    import_candidates,
    levenshtein,
    mine_all,
    mine_edited_after_comment,
    mine_keyword_comments,
    mine_late_answers,
    read_annotations,
    sample_for_annotation,
)


def recursive_levenshtein(a: str, b: str) -> int:
    """Exponential reference implementation (strings <= ~12 chars)."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

    return rec(len(a), len(b))


def dp_levenshtein(a: str, b: str) -> int:
    """The O(n*m) row-by-row DP, kept as the oracle for the bit-parallel form."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) < len(a):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        cur = [j] + [0] * len(a)
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + cost)
        prev = cur
    return prev[-1]


_IDENTS = "foo bar baz val res key node path row col acc tmp".split()


def _code(rng, n_chars: int) -> str:
    """Code-like text of exactly ``n_chars`` characters, with no upper case."""
    lines = []
    while sum(map(len, lines)) < n_chars:
        a, b, c = rng.choice(_IDENTS, size=3)
        lines.append(f"{a} = {b}({c}, {int(rng.integers(0, 100))});\n")
    return "".join(lines)[:n_chars]


def _mutate(rng, s: str, n_edits: int, alphabet: str) -> str:
    """``s`` after ``n_edits`` random substitutions, insertions and deletions."""
    chars = list(s)
    for _ in range(n_edits):
        op = int(rng.integers(0, 3))
        c = alphabet[int(rng.integers(0, len(alphabet)))]
        if op == 0 and chars:
            chars[int(rng.integers(0, len(chars)))] = c
        elif op == 1 or not chars:
            chars.insert(int(rng.integers(0, len(chars) + 1)), c)
        else:
            del chars[int(rng.integers(0, len(chars)))]
    return "".join(chars)


class TestLevenshtein:
    def test_matches_dp_oracle_seeded(self):
        rng = np.random.default_rng(64)
        wide = "ab\u00e9\u4e00\U0001f600"  # a, b, é, 一, 😀
        pairs = [
            ("", ""),
            ("", "\u00e9\u4e00\U0001f600"),
            ("\U0001f600" * 70, "\U0001f600" * 70),
            ("def f(x):", "def f(x): return x"),  # a prefix of the other
            ("\u4e00" * 64, "\u4e00" * 64 + "\u00e9"),
            ("x" * 65, "y" * 65),
        ]
        # pattern (shorter string) lengths around the 64-bit word boundary
        for m in (1, 2, 63, 64, 65, 127, 128, 129, 300):
            for alphabet in ("ab", "abcd", wide):
                a = "".join(rng.choice(list(alphabet), size=m))
                unrelated = "".join(rng.choice(list(alphabet), size=m + int(rng.integers(0, 40))))
                near = _mutate(rng, a, int(rng.integers(1, 12)), alphabet) + a[: m // 3]
                pairs += [(a, unrelated), (a, near), (a, a + near)]
        # code-like 2,000-character pairs with ASCII and non-ASCII edits
        code = _code(rng, 2000)
        pairs.append((code, _mutate(rng, code, 180, "abz_ (;\n" + wide)))
        for a, b in pairs:
            want = dp_levenshtein(a, b)
            assert levenshtein(a, b) == want, (len(a), len(b))
            assert levenshtein(b, a) == want, (len(b), len(a))

    def test_huge_code_span_near_linear(self):
        # Two 10,000-character code strings 1,000 planted substitutions
        # apart, so the distance is 1,000 by construction. The quadratic DP
        # needs about a minute here; the bit-parallel form is linear in the
        # longer string times ceil(m/64) words.
        before = _code(np.random.default_rng(10), 10_000)
        after = planted_edit(before, 1000)
        start = time.perf_counter()
        got = levenshtein(before, after)
        elapsed = time.perf_counter() - start
        assert got == 1000
        assert elapsed < 2.0, f"levenshtein took {elapsed:.2f} s on 10,000 characters"

    def test_empty_to_abc(self):
        assert levenshtein("", "abc") == 3

    def test_identity(self):
        for x in ("", "a", "kitten", "x" * 40):
            assert levenshtein(x, x) == 0

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert recursive_levenshtein("kitten", "sitting") == 3

    def test_matches_recursive_oracle_on_random_pairs(self):
        rng = np.random.default_rng(8)
        alphabet = list("abcd")
        for _ in range(1000):
            a = "".join(rng.choice(alphabet, size=int(rng.integers(0, 13))))
            b = "".join(rng.choice(alphabet, size=int(rng.integers(0, 13))))
            assert levenshtein(a, b) == recursive_levenshtein(a, b), (a, b)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(9)
        alphabet = list("abcde")
        for _ in range(300):
            a, b, c = (
                "".join(rng.choice(alphabet, size=int(rng.integers(0, 12)))) for _ in range(3)
            )
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, a) == 0
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestExtractCode:
    def test_two_spans_newline_joined(self):
        assert extract_code("<p>x</p><code>a</code><p>y</p><code>b</code>") == "a\nb"

    def test_no_code(self):
        assert extract_code("<p>plain prose</p>") == ""

    def test_unbalanced_tail_policy(self):
        assert extract_code("<p>x</p><code>rest = of(body)") == "rest = of(body)"

    def test_code_with_attributes(self):
        assert extract_code('<code class="lang-py">x</code>') == "x"


class TestMiners:
    def test_keyword_miner_returns_exactly_planted(self, miner_fixture):
        store, expected = miner_fixture
        got = {c.answer_id for c in mine_keyword_comments(store)}
        assert got == expected["keyword_comment"]

    def test_keyword_evidence_is_matching_comment(self, miner_fixture):
        store, _ = miner_fixture
        for cand in mine_keyword_comments(store):
            assert any(
                k in cand.evidence.lower() for k in ("deprecated", "outdated", "obsolete", "out of date")
            )

    def test_edited_miner_returns_exactly_planted(self, miner_fixture):
        store, expected = miner_fixture
        exclusions = {c.answer_id for c in mine_keyword_comments(store)}
        got = {c.answer_id for c in mine_edited_after_comment(store, exclusions)}
        assert got == expected["edited_after_comment"]

    def test_edited_without_exclusions_overlaps_keyword_set(self, miner_fixture):
        store, expected = miner_fixture
        unexcluded = {c.answer_id for c in mine_edited_after_comment(store)}
        overlap = unexcluded & expected["keyword_comment"]
        assert len(overlap) == 5  # the planted dual-qualifiers

    def test_late_miner_returns_exactly_planted(self, miner_fixture):
        store, expected = miner_fixture
        got = {c.answer_id for c in mine_late_answers(store)}
        assert got == expected["late_answer"]

    def test_mine_all_disjoint_and_complete(self, miner_fixture):
        store, expected = miner_fixture
        candidates = mine_all(store)
        ids = [c.answer_id for c in candidates]
        assert len(ids) == len(set(ids)), "heuristic outputs overlap"
        by_heuristic = {h.value: set() for h in Heuristic}
        for cand in candidates:
            by_heuristic[cand.heuristic.value].add(cand.answer_id)
        assert by_heuristic == expected

    def test_levenshtein_boundary_inclusive(self, miner_fixture):
        store, _ = miner_fixture
        exclusions = {c.answer_id for c in mine_keyword_comments(store)}
        distances = {
            c.answer_id: int(c.evidence.split("=")[1])
            for c in mine_edited_after_comment(store, exclusions)
        }
        # planted code distances 99, 100 and 101: the floor is inclusive
        assert sorted(distances.values())[:2] == [100, 101]
        assert 99 not in distances.values()

    def test_late_boundary_inclusive(self, miner_fixture):
        store, expected = miner_fixture
        assert 5000 in expected["late_answer"]
        got = {c.answer_id for c in mine_late_answers(store)}
        assert 5000 in got  # exactly 1.5 years after the question

    def test_evidence_present_per_heuristic(self, miner_fixture):
        store, _ = miner_fixture
        for cand in mine_all(store):
            assert cand.evidence
            if cand.heuristic is Heuristic.EDITED_AFTER_COMMENT:
                assert cand.evidence.startswith("levenshtein=")


def test_unbalanced_code_warning_names_each_post(tmp_path, caplog):
    # An unclosed <code> in the question and in each miner's answer: every
    # clean_text call in the miners names the post it cleans.
    unclosed = "<p>intro</p><code>x = 1"
    posts = [
        question_row(10, body=unclosed, created=ts(0)),
        answer_row(11, 10, body=unclosed, score=2, created=ts(1)),
        question_row(20, created=ts(0)),
        answer_row(21, 20, body=unclosed, score=2, created=ts(1), last_edit=ts(10)),
        question_row(30, created=ts(0)),
        answer_row(31, 30, body=unclosed + " see the accepted answer", score=3, created=ts(700)),
    ]
    comments = [
        comment_row(100, 11, "this is deprecated", created=ts(2)),
        comment_row(101, 21, "please update", created=ts(5)),
    ]
    history = [
        history_row(200, 21, 2, code_body(""), created=ts(1)),
        history_row(201, 21, 5, code_body("z" * 150), created=ts(10)),
    ]
    store = store_from_rows(tmp_path, posts, comments, history)
    caplog.set_level(logging.WARNING, logger="sopipeline.corpus")
    found = {c.answer_id: c.heuristic for c in mine_all(store)}
    assert found == {
        11: Heuristic.KEYWORD_COMMENT,
        21: Heuristic.EDITED_AFTER_COMMENT,
        31: Heuristic.LATE_ANSWER,
    }
    warned = [r.getMessage() for r in caplog.records if "unbalanced <code>" in r.getMessage()]
    assert sorted(warned) == [
        f"post {pid}: unbalanced <code> tag; keeping remainder as code" for pid in (10, 11, 21, 31)
    ]


class TestSampling:
    def _candidates(self, n_per=(400, 400, 400)):
        out = []
        for count, heuristic in zip(n_per, Heuristic):
            for i in range(count):
                out.append(
                    ObsoleteCandidate(
                        answer_id=hash((heuristic.value, i)) % 10**9,
                        question_id=1,
                        heuristic=heuristic,
                        evidence="e",
                        answer_text="t",
                        score=2,
                    )
                )
        return out

    def test_balanced_draw(self):
        sample = sample_for_annotation(self._candidates(), 999, seed=1)
        assert sample.per_heuristic == {h.value: 333 for h in Heuristic}
        assert not sample.shortfall
        ids = [c.answer_id for c in sample.candidates]
        assert len(ids) == len(set(ids)) == 999

    def test_shortfall_reported_not_rebalanced(self):
        sample = sample_for_annotation(self._candidates((5, 400, 400)), 999, seed=1)
        assert sample.per_heuristic["keyword_comment"] == 5
        assert sample.per_heuristic["edited_after_comment"] == 333
        assert sample.shortfall == {"keyword_comment": 328}
        assert len(sample.candidates) == 5 + 333 + 333

    def test_same_seed_same_sample(self):
        a = sample_for_annotation(self._candidates(), 300, seed=7)
        b = sample_for_annotation(self._candidates(), 300, seed=7)
        assert [c.answer_id for c in a.candidates] == [c.answer_id for c in b.candidates]

    def test_all_empty_errors(self):
        with pytest.raises(UsageError):
            sample_for_annotation([], 9, seed=0)


class TestCohenKappa:
    def test_identical_nonconstant(self):
        assert cohen_kappa([0, 1, 0, 1], [0, 1, 0, 1]) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert cohen_kappa([0, 1], [1, 0]) == pytest.approx(-1.0)

    def test_independent_random_near_zero(self):
        rng = np.random.default_rng(10)
        a = list(rng.integers(0, 2, size=10_000))
        b = list(rng.integers(0, 2, size=10_000))
        assert abs(cohen_kappa(a, b)) < 0.05

    def test_constant_equal_labelings_undefined(self):
        with pytest.raises(MetricError):
            cohen_kappa([1, 1, 1], [1, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            cohen_kappa([0, 1], [0])

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        a = list(rng.integers(0, 3, size=500))
        b = list(rng.integers(0, 3, size=500))
        base = cohen_kappa(a, b)
        mapping = {0: "x", 1: "y", 2: "z"}
        assert cohen_kappa([mapping[v] for v in a], [mapping[v] for v in b]) == pytest.approx(base)


class TestExportImport:
    def test_candidate_roundtrip(self, tmp_path, miner_fixture):
        store, _ = miner_fixture
        candidates = mine_all(store)
        path = tmp_path / "cands.jsonl"
        n = export_candidates(candidates, path)
        back = import_candidates(path)
        assert n == len(candidates)
        assert [c.answer_id for c in back] == [c.answer_id for c in candidates]
        assert [c.heuristic for c in back] == [c.heuristic for c in candidates]

    def _write_tsv(self, path, rows, header="candidate_id\tlabel\tannotator"):
        path.write_text(header + "\n" + "".join(f"{a}\t{b}\t{c}\n" for a, b, c in rows))

    def test_annotation_import(self, tmp_path):
        path = tmp_path / "ann.tsv"
        self._write_tsv(path, [(1, "Obsolete", "alice"), (2, "NotObsolete", "alice")])
        records = [r for _, r in read_annotations(path)]
        assert records == [
            AnnotationRecord(1, "Obsolete", "alice"),
            AnnotationRecord(2, "NotObsolete", "alice"),
        ]

    def test_crlf_annotation_reads_as_lf(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_bytes(b"candidate_id\tlabel\tannotator\r\n1\tObsolete\talice\r\n\r\n2\tNotObsolete\tbob\r\n")
        assert [r for _, r in read_annotations(path)] == [
            AnnotationRecord(1, "Obsolete", "alice"),
            AnnotationRecord(2, "NotObsolete", "bob"),
        ]

    def test_invalid_label(self, tmp_path):
        path = tmp_path / "ann.tsv"
        self._write_tsv(path, [(1, "maybe", "alice")])
        with pytest.raises(UsageError):
            [r for _, r in read_annotations(path)]

    def test_duplicate_annotation_names_second_row(self, tmp_path):
        path = tmp_path / "ann.tsv"
        self._write_tsv(path, [(1, "Obsolete", "alice"), (1, "Obsolete", "bob"), (1, "NotObsolete", "alice")])
        with pytest.raises(UsageError) as err:
            [r for _, r in read_annotations(path)]
        assert str(err.value) == f"{path}:4: duplicate annotation for candidate 1 by 'alice' (first at line 2)"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ann.tsv"
        self._write_tsv(path, [(1, "Obsolete", "a")], header="id\tlabel\twho")
        with pytest.raises(UsageError):
            [r for _, r in read_annotations(path)]

    def test_two_annotators_feed_kappa(self, tmp_path):
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self._write_tsv(pa, [(1, "Obsolete", "a"), (2, "NotObsolete", "a"), (3, "Obsolete", "a")])
        self._write_tsv(pb, [(1, "Obsolete", "b"), (2, "Obsolete", "b"), (3, "Obsolete", "b")])
        a = {r.candidate_id: r.label for _, r in read_annotations(pa)}
        b = {r.candidate_id: r.label for _, r in read_annotations(pb)}
        ids = sorted(a)
        kappa = cohen_kappa([a[i] for i in ids], [b[i] for i in ids])
        assert -1.0 <= kappa <= 1.0
