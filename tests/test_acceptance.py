"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each criterion is also a hard assertion, so a plain ``pytest`` run
enforces all of them.
"""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import answer_row, as_dump_row, comment_row, history_row, question_row, rows_xml, ts
from sopipeline import metrics, scaling, shards
from sopipeline.bpe import MIN_VOCAB_SIZE, train_bpe
from sopipeline.cli import main
from sopipeline.corpus import SEPARATOR, build_samples, corpus_stats
from sopipeline.dump_ingest import parse_comment, parse_post
from sopipeline.mining import (
    cohen_kappa,
    levenshtein,
    mine_edited_after_comment,
    mine_keyword_comments,
    mine_late_answers,
)
from sopipeline.mlm import (
    EncoderConfig,
    HeadKind,
    attach_head,
    build_encoder,
    finetune,
    grad_check,
    make_masked_batch,
    plan_batches,
    train_mlm,
)
from sopipeline.mlm.training import mlm_loss_sums
from sopipeline.record_store import build_store


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_01_cost_reproduction():
    large = scaling.estimate_cost(2880, 1.0, 1.8)
    base = scaling.estimate_cost(672, 1.0, 1.8)
    report(1, "cost reproduction", large == 1600 and base == 374, f"{large}/{base}")


def test_02_parameter_budget_reproduction():
    p_large = scaling.estimate_params(scaling.ModelShape(24, 1536, 50_000, 2048, True))
    p_base = scaling.estimate_params(scaling.ModelShape(12, 768, 50_000, 2048, True))
    floor = scaling.min_tokens(762_000_000)
    ok = (
        abs(p_large - 762e6) / 762e6 < 0.02
        and abs(p_base - 125e6) / 125e6 < 0.05
        and floor == 15_240_000_000
        and floor >= 15_000_000_000
    )
    report(2, "parameter/budget reproduction", ok, f"{p_large}, {p_base}, {floor}")


def test_03_tokenizer_properties():
    texts = [
        "answers with code like def f(x): return x " * 4,
        "so many posts <RS> and comments [URL] everywhere " * 4,
        "bytes \x00\x01 and unicode éß中 " * 4,
    ]
    vocab = train_bpe(texts, MIN_VOCAB_SIZE + 80, sample_fraction=1.0, seed=0)

    rng = np.random.default_rng(0)
    roundtrip_ok = True
    unknown_ok = True
    for _ in range(10_000):
        data = bytes(rng.integers(0, 256, size=int(rng.integers(0, 48))))
        ids = vocab.encode(data)
        if any(not 0 <= i < vocab.vocab_size for i in ids):
            unknown_ok = False
            break
        if vocab.decode_bytes(ids) != data:
            roundtrip_ok = False
            break

    again = train_bpe(texts, MIN_VOCAB_SIZE + 80, sample_fraction=1.0, seed=0)
    deterministic = vocab.merges == again.merges

    report(
        3,
        "tokenizer properties",
        roundtrip_ok and unknown_ok and deterministic,
        f"roundtrip={roundtrip_ok} no-unknown={unknown_ok} deterministic={deterministic}",
    )


def _synthetic_dump(n_questions=2000, n_answers=5000, n_comments=3000, seed=0):
    rng = np.random.default_rng(seed)
    posts, comments = [], []
    for q in range(n_questions):
        posts.append(question_row(q + 1, created=ts(0)))
    for i in range(n_answers):
        aid = 10_000 + i
        posts.append(
            answer_row(
                aid,
                int(rng.integers(1, n_questions + 1)),
                score=int(rng.integers(-2, 6)),
                created=ts(1),
                body=f"<p>answer {i} text</p><code>x = {i}</code>",
            )
        )
    for j in range(n_comments):
        comments.append(
            comment_row(
                100_000 + j,
                10_000 + int(rng.integers(0, n_answers)),
                f"comment {j}",
                created=ts(float(2 + rng.random() * 5)),
            )
        )
    return posts, comments


def test_04_corpus_filter_oracle(tmp_path):
    posts, comments = _synthetic_dump()
    assert len(posts) + len(comments) == 10_000
    store = build_store(
        [parse_post(as_dump_row(p)) for p in posts],
        [parse_comment(as_dump_row(c)) for c in comments],
        [],
        tmp_path / "store10k",
    )

    comment_counts: dict[int, int] = {}
    for c in comments:
        comment_counts[c["PostId"]] = comment_counts.get(c["PostId"], 0) + 1
    brute = {
        p["Id"]
        for p in posts
        if p["PostTypeId"] == 2 and p["Score"] >= 1 and comment_counts.get(p["Id"], 0) >= 1
    }

    samples = list(build_samples(store))
    got = {s.answer_id for s in samples}
    filter_ok = got == brute

    separator_ok = all(s.text.count(SEPARATOR) == s.n_comments for s in samples)

    stats = corpus_stats(iter(samples))
    partition_ok = sum(stats.length_histogram.values()) == stats.n_samples == len(samples)

    report(
        4,
        "corpus filter oracle",
        filter_ok and separator_ok and partition_ok,
        f"filtered={len(got)} brute={len(brute)} sep_ok={separator_ok} hist_ok={partition_ok}",
    )


def _tiny_batch(vocab_size=20, seed=11):
    seqs = [list(np.random.default_rng(seed + i).integers(6, vocab_size, size=6 - i % 2)) for i in range(3)]
    return make_masked_batch(seqs, 0.3, vocab_size=vocab_size, seed=5)


def test_05_mlm_engine_numerics():
    details = []

    # gradient check on the three sublayer configurations
    errs = {}
    for label, kw in (
        ("attention-only", dict(sublayers=("attention",))),
        ("ffn-only", dict(sublayers=("ffn",))),
        ("full-2layer", dict(n_layers=2)),
    ):
        base = dict(n_layers=1, hidden=8, n_heads=2, vocab_size=20, max_positions=8, seed=1)
        base.update(kw)
        model = build_encoder(EncoderConfig(**base))
        errs[label] = grad_check(model, _tiny_batch())
    grad_ok = all(e < 1e-4 for e in errs.values())
    details.append("grad=" + ",".join(f"{k}:{v:.1e}" for k, v in errs.items()))

    # fresh model predicts ~uniform: loss near ln(V)
    cfg = EncoderConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=1000, max_positions=64, seed=0)
    model = build_encoder(cfg)
    seqs = [list(np.random.default_rng(i).integers(6, 1000, size=48)) for i in range(8)]
    loss_sum, count = mlm_loss_sums(model, make_masked_batch(seqs, 0.15, vocab_size=1000, seed=1))
    loss = loss_sum / count
    init_ok = abs(loss - math.log(1000)) / math.log(1000) < 0.05
    details.append(f"init_loss={loss:.3f}")

    # single fixed micro-batch memorization within the 2000-step budget
    rng = np.random.default_rng(123)
    overfit_seqs = [list(rng.integers(6, 300, size=16)) for _ in range(32)]
    cfg = EncoderConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=300, max_positions=32, seed=42)
    model = build_encoder(cfg)
    plan = plan_batches(32 * 16, 32, 16)
    losses = train_mlm(
        model, overfit_seqs, plan, steps=800, lr=0.1, seed=7,
        remask_each_step=False, warmup_steps=100,
    )
    overfit_ok = losses[-1] < 0.1
    details.append(f"overfit_final={losses[-1]:.4f}@{len(losses)}steps")

    # empirical masked fraction at rate 0.15 over 1,000 sequences
    mask_seqs = [list(np.random.default_rng(i).integers(6, 300, size=100)) for i in range(1000)]
    batch = make_masked_batch(mask_seqs, 0.15, vocab_size=300, seed=0)
    n_masked = int((batch.labels != -100).sum())
    n_positions = 1000 * 100
    sigma = math.sqrt(n_positions * 0.15 * 0.85)
    mask_ok = abs(n_masked - 0.15 * n_positions) <= 3 * sigma
    details.append(f"masked={n_masked}")

    # 4 accumulated micro-batches == one 4x batch
    acc_seqs = [list(np.random.default_rng(50 + i).integers(6, 64, size=10)) for i in range(32)]
    updates = []
    for micro, accum in ((8, 4), (32, 1)):
        cfg = EncoderConfig(
            n_layers=2, hidden=16, n_heads=4, vocab_size=64, max_positions=16,
            seed=7, dtype="float64",
        )
        model = build_encoder(cfg)
        plan = plan_batches(micro * 10 * accum, micro, 10)
        train_mlm(model, acc_seqs, plan, steps=1, lr=0.1, seed=5)
        updates.append(model.params)
    worst = 0.0
    for name in updates[0]:
        a, b = updates[0][name], updates[1][name]
        worst = max(worst, float((np.abs(a - b) / np.maximum(np.abs(a), 1e-12)).max()))
    accum_ok = worst < 1e-6
    details.append(f"accum_rel={worst:.1e}")

    report(
        5,
        "mlm engine numerics",
        grad_ok and init_ok and overfit_ok and mask_ok and accum_ok,
        " ".join(details),
    )


def test_06_batch_planning():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 64))
        t = int(rng.integers(1, 4096))
        target = int(rng.integers(1, 2_000_000))
        a = plan_batches(target, m, t).accumulation_steps
        if not (m * t * a >= target and (a == 1 or m * t * (a - 1) < target)):
            ok = False
            break
    canonical = plan_batches(500_000, 8, 2048)
    ok = ok and canonical.accumulation_steps == 31 and canonical.effective_tokens == 507_904
    report(6, "batch planning", ok, f"a(500k,8,2048)={canonical.accumulation_steps}")


def test_07_miner_oracle(miner_fixture):
    store, expected = miner_fixture
    kw = {c.answer_id for c in mine_keyword_comments(store)}
    ed = {c.answer_id for c in mine_edited_after_comment(store, kw)}
    late = {c.answer_id for c in mine_late_answers(store, kw | ed)}

    exact = kw == expected["keyword_comment"] and ed == expected["edited_after_comment"] and late == expected["late_answer"]
    disjoint = not (kw & ed) and not (kw & late) and not (ed & late)

    # planted boundary rows: distance exactly 100 in, 99 out; 1.5y in
    distances = {
        c.answer_id: int(c.evidence.split("=")[1]) for c in mine_edited_after_comment(store, kw)
    }
    boundary_ok = min(distances.values()) == 100 and 5000 in late

    floors_ok = (
        all(store.get_post(a).score >= 1 for a in kw)
        and all(store.get_post(a).score >= 1 for a in ed)
        and all(store.get_post(a).score >= 2 for a in late)
    )
    report(
        7,
        "miner oracle",
        exact and disjoint and boundary_ok and floors_ok,
        f"kw={len(kw)} ed={len(ed)} late={len(late)}",
    )


def test_08_levenshtein_oracle():
    @lru_cache(maxsize=None)
    def rec(a: str, b: str) -> int:
        if not a:
            return len(b)
        if not b:
            return len(a)
        cost = 0 if a[-1] == b[-1] else 1
        return min(rec(a[:-1], b) + 1, rec(a, b[:-1]) + 1, rec(a[:-1], b[:-1]) + cost)

    rng = np.random.default_rng(8)
    alphabet = list("abcd")
    pairs_ok = True
    for _ in range(1000):
        a = "".join(rng.choice(alphabet, size=int(rng.integers(0, 13))))
        b = "".join(rng.choice(alphabet, size=int(rng.integers(0, 13))))
        if levenshtein(a, b) != rec(a, b):
            pairs_ok = False
            break

    axioms_ok = True
    for _ in range(300):
        a, b, c = ("".join(rng.choice(alphabet, size=int(rng.integers(0, 12)))) for _ in range(3))
        if levenshtein(a, b) != levenshtein(b, a) or levenshtein(a, a) != 0:
            axioms_ok = False
            break
        if levenshtein(a, c) > levenshtein(a, b) + levenshtein(b, c):
            axioms_ok = False
            break

    report(8, "levenshtein oracle", pairs_ok and axioms_ok)


def test_09_metrics_oracle():
    from test_metrics import oracle_metrics

    rng = np.random.default_rng(4)
    oracle_ok = True
    for _ in range(1000):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(n_classes, 120))
        y_true = rng.integers(0, n_classes, size=n)
        y_true[:n_classes] = np.arange(n_classes)
        y_pred = rng.integers(0, n_classes, size=n)
        stats = metrics.confusion(y_true, y_pred, n_classes)
        weights = metrics.class_weights(stats.ap, metrics.WeightMode.INVERSE_FREQUENCY)
        acc, rec, f1 = oracle_metrics(y_true.tolist(), y_pred.tolist(), weights.weights)
        if (
            abs(metrics.weighted_accuracy(stats, weights) - acc) > 1e-12
            or abs(metrics.weighted_recall(stats, weights) - rec) > 1e-12
            or abs(metrics.weighted_f1(stats, weights) - f1) > 1e-12
        ):
            oracle_ok = False
            break

    y = list(rng.integers(0, 3, size=50)) + [0, 1, 2]
    stats = metrics.confusion(y, y, 3)
    w = metrics.class_weights(stats.ap, metrics.WeightMode.INVERSE_FREQUENCY)
    perfect_ok = (
        metrics.weighted_accuracy(stats, w)
        == metrics.weighted_recall(stats, w)
        == metrics.weighted_f1(stats, w)
        == 1.0
    )

    y_true = rng.integers(0, 3, size=500)
    y_true[:3] = [0, 1, 2]
    y_pred = rng.integers(0, 3, size=500)
    stats = metrics.confusion(y_true, y_pred, 3)
    uniform = metrics.class_weights(stats.ap, metrics.WeightMode.UNIFORM)
    micro = float((y_true == y_pred).mean())
    uniform_ok = metrics.weighted_recall(stats, uniform) == pytest.approx(micro, abs=1e-15)

    stats = metrics.confusion([1, 1, 0, 0], [1, 0, 0, 0], 2)
    equal = metrics.ClassWeights(np.array([0.5, 0.5]), metrics.WeightMode.BALANCED)
    worked_ok = (
        metrics.weighted_accuracy(stats, equal) == pytest.approx(0.75)
        and metrics.weighted_recall(stats, equal) == pytest.approx(0.75)
        and metrics.weighted_f1(stats, equal) == pytest.approx(0.73333333333, abs=1e-9)
    )

    report(
        9,
        "metrics oracle",
        oracle_ok and perfect_ok and uniform_ok and worked_ok,
        f"oracle={oracle_ok} perfect={perfect_ok} uniform={uniform_ok} worked={worked_ok}",
    )


def test_10_finetune_path():
    vocab_size = 106

    def make(n, seed):
        r = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            ids = r.integers(6, vocab_size, size=12)
            out.append((list(ids), list(ids % 2)))
        return out

    cfg = EncoderConfig(n_layers=1, hidden=32, n_heads=4, vocab_size=vocab_size, max_positions=16, seed=3)
    clf = attach_head(build_encoder(cfg), HeadKind.TOKEN, 2)
    clf, preds = finetune(
        clf,
        make(256, 1),
        eval_data=make(64, 2),
        batch_size=32,
        lr=0.02,
        epochs=12,
        seed=5,
        warmup_steps=10,
    )
    heldout = make(64, 2)
    y_true = np.concatenate([lab for _, lab in heldout])
    y_pred = np.concatenate(preds)
    stats = metrics.confusion(y_true, y_pred, 2)
    weights = metrics.class_weights(stats.ap, metrics.WeightMode.INVERSE_FREQUENCY)
    f1 = metrics.weighted_f1(stats, weights)
    report(10, "fine-tune path", f1 > 0.95, f"held-out weighted F1={f1:.4f}")


def test_11_kappa():
    identical = cohen_kappa([0, 1, 0, 1, 2], [0, 1, 0, 1, 2]) == pytest.approx(1.0)
    opposite = cohen_kappa([0, 1], [1, 0]) == pytest.approx(-1.0)
    rng = np.random.default_rng(10)
    a = list(rng.integers(0, 2, size=10_000))
    b = list(rng.integers(0, 2, size=10_000))
    independent = abs(cohen_kappa(a, b)) < 0.05
    report(11, "cohen kappa", identical and opposite and independent)


def _pipeline_fixture_files(tmp_path):
    posts, comments, history = [], [], []
    cid = 0
    for i in range(30):
        qid, aid = 1 + i, 1000 + i
        posts.append(question_row(qid, created=ts(0)))
        posts.append(
            answer_row(
                aid, qid, score=1 + i % 3, created=ts(1 + (600 if i % 5 == 0 else 0)),
                body=(
                    f"<p>answer {i} check https://ex.io/{i} or mail a@b.com</p>"
                    f"<code>val = {i} * 2</code>"
                    + ("<p>better than the accepted answer</p>" if i % 5 == 0 else "")
                ),
            )
        )
        for j in range(1 + i % 3):
            cid += 1
            text = "this is deprecated" if i % 7 == 0 and j == 0 else f"comment {j} on {i}"
            comments.append(comment_row(10_000 + cid, aid, text, created=ts(2 + j)))
        if i % 6 == 1:  # substantially edited after its comments
            history.append(history_row(20_000 + i, aid, 2, f"<code>v0_{i}</code>", created=ts(1)))
            history.append(
                history_row(21_000 + i, aid, 5, f"<code>{'new ' * 40}{i}</code>", created=ts(8))
            )
    posts_path = tmp_path / "Posts.xml"
    comments_path = tmp_path / "Comments.xml"
    history_path = tmp_path / "PostHistory.xml"
    posts_path.write_bytes(rows_xml(posts))
    comments_path.write_bytes(rows_xml(comments))
    history_path.write_bytes(rows_xml(history))
    return posts_path, comments_path, history_path


def _run_pipeline(tmp_path, posts_path, comments_path, history_path, run_name):
    out = tmp_path / run_name
    out.mkdir()
    store = out / "store"
    corpus_path = out / "corpus.jsonl"
    vocab_path = out / "vocab.sovoc"
    shard_path = out / "corpus.sotk"
    cands = out / "candidates.jsonl"
    sampled = out / "sampled.jsonl"
    assert main(["ingest", "--posts", str(posts_path), "--comments", str(comments_path),
                 "--posthistory", str(history_path), "--store-dir", str(store)]) == 0
    assert main(["build-corpus", "--store-dir", str(store), "--out", str(corpus_path)]) == 0
    assert main(["train-tokenizer", "--corpus", str(corpus_path), "--out", str(vocab_path),
                 "--vocab-size", "320", "--sample-fraction", "1.0", "--seed", "0"]) == 0
    assert main(["build-corpus", "--store-dir", str(store), "--out", str(shard_path),
                 "--format", "shards", "--vocab", str(vocab_path)]) == 0
    assert main(["mine", "--store-dir", str(store), "--out", str(cands)]) == 0
    assert main(["sample-annotations", "--candidates", str(cands), "--n", "6",
                 "--seed", "0", "--out", str(sampled)]) == 0
    return {
        "corpus": corpus_path.read_bytes(),
        "vocab": vocab_path.read_bytes(),
        "shard": shard_path.read_bytes(),
        "shard_index": shards.index_path(shard_path).read_bytes(),
        "candidates": cands.read_bytes(),
        "sampled": sampled.read_bytes(),
        "corpus_manifest": (out / "corpus.jsonl.manifest.json").read_bytes(),
    }


def test_12_end_to_end_determinism(tmp_path):
    posts_path, comments_path, history_path = _pipeline_fixture_files(tmp_path)
    first = _run_pipeline(tmp_path, posts_path, comments_path, history_path, "run_a")
    second = _run_pipeline(tmp_path, posts_path, comments_path, history_path, "run_b")
    all_heuristics = {
        json.loads(line)["heuristic"] for line in first["candidates"].decode().splitlines()
    }
    mismatched = [k for k in first if first[k] != second[k]]
    report(
        12,
        "end-to-end determinism",
        not mismatched and len(all_heuristics) == 3,
        f"artifacts={sorted(first)} mismatched={mismatched} heuristics={sorted(all_heuristics)}",
    )
