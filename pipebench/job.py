"""One benchmark job process: set up, run a workload's batch job in a
closed loop, check every output, print one JSON line.

The job calls sopipeline's public Python API in the order ``cli.py`` does
for each subcommand. Program-side preparation (imports, loading the
vocabulary, opening shards, building the model) happens before the first
timed call and is reported as ``setup_s``, measured from the moment the
parent started this process (``--t0``, a CLOCK_MONOTONIC reading in ns).
Each repetition of the job runs every stage once; a stage that raises or
whose output fails its check counts as failed.

    python3 pipebench/job.py --workload mine-history --inputs DIR --work DIR \\
        --seconds 20 --trace 0 --t0 "$(python3 -c 'import time; print(time.monotonic_ns())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sopipeline  # noqa: E402
from sopipeline import bpe, corpus, dump_ingest, metrics, mining, mlm, record_store, shards  # noqa: E402
from sopipeline.config import PipelineConfig, validate  # noqa: E402
from sopipeline.errors import RowError  # noqa: E402
from sopipeline.mlm import encoder as mlm_encoder  # noqa: E402
from sopipeline.mlm import masking as mlm_masking  # noqa: E402
from sopipeline.mlm import training as mlm_training  # noqa: E402

from spans import Tracer  # noqa: E402

# dump-to-shards tokenizer settings
D2S_VOCAB_SIZE = 1000
D2S_SAMPLE_FRACTION = 0.5
# train-v50k model and schedule: the CLI's default 2-layer, d=64 encoder
V50K_SEQ_LEN = 128
V50K_MICRO_BATCH = 8
V50K_TARGET_TOKENS = 2048  # two micro-batches per step
V50K_STEPS = 4
V50K_LR = 0.01
V50K_FT_EPOCHS = 2
V50K_FT_LR = 0.01
V50K_FT_BATCH = 16
V50K_MIN_ACCURACY = 0.75


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_shard(path: Path) -> tuple[bytes, list[list[int]]]:
    """Parse a token shard per docs/FORMATS.md, independently of ShardReader."""
    blob = path.read_bytes()
    if blob[:5] != b"SOTK1":
        raise ValueError("bad shard magic")
    checksum, pos, seqs = blob[5:13], 13, []
    while pos < len(blob):
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + 4 * n > len(blob):
            raise ValueError("truncated shard")
        seqs.append(list(struct.unpack_from(f"<{n}I", blob, pos)))
        pos += 4 * n
    return checksum, seqs


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Workload:
    """A batch job: ordered stages, program-side setup, output checks."""

    stages: tuple[str, ...] = ()

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.truth = json.loads((inputs / "truth.json").read_text())
        self.config = validate(PipelineConfig())
        self.tracer: Tracer | None = None
        self.out: dict = {}

    def setup(self) -> None:
        """Program-side preparation before the first timed call."""

    def reset(self, rep_dir: Path) -> None:
        """Fresh state for one repetition (untimed)."""
        self.dir = rep_dir
        self.out = {}

    def check(self, stage: str) -> str | None:
        """None when ``stage``'s outputs are right, else what is wrong."""
        return getattr(self, f"check_{stage}")()

    def count(self, key: str, n: float) -> None:
        if self.tracer is not None:
            self.tracer.count(key, n)

    # -- stages shared by the dump workloads ---------------------------------

    def _parse_rows(self, path: Path, table: str, parse_fn, skipped: list):
        """The CLI's row reader: stream XML rows and parse each one."""
        self.count("dump_ingest.bytes", path.stat().st_size)
        with open(path, "rb") as fh:
            for attrs in dump_ingest.stream_rows(fh, table):
                try:
                    yield parse_fn(attrs)
                except RowError as exc:
                    skipped.append((table, exc.row_id, str(exc)))

    def stage_ingest(self) -> dict:
        store_dir = self.dir / "store"
        skipped: list = []
        history = self.inputs / "PostHistory.xml"
        store = record_store.build_store(
            self._parse_rows(self.inputs / "Posts.xml", dump_ingest.TABLE_POSTS, dump_ingest.parse_post, skipped),
            self._parse_rows(self.inputs / "Comments.xml", dump_ingest.TABLE_COMMENTS, dump_ingest.parse_comment, skipped),
            self._parse_rows(history, dump_ingest.TABLE_HISTORY, dump_ingest.parse_history, skipped),
            store_dir,
        )
        report = store.load_report
        report.skipped.extend(skipped)
        (store_dir / "load_report.txt").write_text(report.to_text())
        store.close()
        return {"posts": report.n_posts, "comments": report.n_comments, "history": report.n_history,
                "skipped": len(report.skipped)}

    def check_ingest(self) -> str | None:
        want = self.truth["counts"]
        got = self.out["ingest"]
        with record_store.RecordStore(self.dir / "store") as store:
            stored = {t: store.count(t) for t in ("posts", "comments", "post_history")}
        expect = {"posts": want["posts"], "comments": want["comments"], "post_history": want["history"]}
        if stored != expect:
            return f"store counts {stored} != generated {expect}"
        if (got["posts"], got["comments"], got["history"], got["skipped"]) != (
            want["posts"], want["comments"], want["history"], 0,
        ):
            return f"load report {got} != generated {want}"
        return None


class DumpToShards(Workload):
    """ingest -> build-corpus (JSONL) -> train-tokenizer -> build-corpus
    (shards) -> stats --vocab."""

    stages = ("ingest", "build_corpus", "train_tokenizer", "build_shards", "stats")

    def _samples(self, store):
        counters: dict = {"skipped_empty": 0}
        samples = corpus.build_samples(
            store,
            min_score=self.config.min_score,
            min_comments=self.config.min_comments,
            replace_urls=self.config.replace_urls,
            replace_emails=self.config.replace_emails,
            counters=counters,
        )
        return samples, counters

    def stage_build_corpus(self) -> dict:
        with record_store.RecordStore(self.dir / "store") as store:
            samples, counters = self._samples(store)
            return corpus.write_corpus(
                samples, self.dir / "corpus.jsonl", fmt="jsonl",
                manifest_extra={"seed": self.config.seed, **counters},
            )

    def _texts(self):
        for sample in corpus.read_corpus_jsonl(self.dir / "corpus.jsonl"):
            self.count("bpe.train_bytes", len(sample.text.encode("utf-8")))
            yield sample.text

    def stage_train_tokenizer(self) -> dict:
        vocab = bpe.train_bpe(
            self._texts(),
            D2S_VOCAB_SIZE,
            sample_fraction=D2S_SAMPLE_FRACTION,
            seed=self.config.seed,
            isolate_digits=self.config.isolate_digits,
        )
        vocab.save(self.dir / "vocab.sovoc")
        return {"vocab_size": vocab.vocab_size, "n_merges": len(vocab.merges)}

    def stage_build_shards(self) -> dict:
        tokenizer = bpe.load_vocab(self.dir / "vocab.sovoc")
        with record_store.RecordStore(self.dir / "store") as store:
            samples, counters = self._samples(store)
            return corpus.write_corpus(
                samples, self.dir / "corpus.sotk", fmt="shards", tokenizer=tokenizer,
                manifest_extra={"seed": self.config.seed, **counters},
            )

    def stage_stats(self) -> dict:
        tokenizer = bpe.load_vocab(self.dir / "vocab.sovoc")
        stats = corpus.corpus_stats(
            corpus.read_corpus_jsonl(self.dir / "corpus.jsonl"), tokenizer, self.config.bucket_edges
        )
        return stats.to_dict()

    # -- checks ------------------------------------------------------------

    def _corpus(self) -> list[dict]:
        if "corpus" not in self.out:
            self.out["corpus"] = _read_jsonl(self.dir / "corpus.jsonl")
        return self.out["corpus"]

    def check_build_corpus(self) -> str | None:
        rows = self._corpus()
        want = self.truth["corpus"]
        got_ids = [r["answer_id"] for r in rows]
        want_ids = [w["answer_id"] for w in want]
        if got_ids != want_ids:
            return f"corpus answer ids differ from the {len(want_ids)} planted answers (got {len(got_ids)})"
        for row, w in zip(rows, want):
            if row["n_comments"] != w["n_comments"] or row["text"].count(corpus.SEPARATOR) != w["n_comments"]:
                return f"answer {row['answer_id']}: separators/comments do not match {w['n_comments']} comments"
        manifest = self.out["build_corpus"]
        if manifest["sha256"] != _sha256(self.dir / "corpus.jsonl") or manifest["n_samples"] != len(rows):
            return "corpus manifest does not match the written file"
        return None

    def check_train_tokenizer(self) -> str | None:
        vocab = bpe.load_vocab(self.dir / "vocab.sovoc")
        if not bpe.MIN_VOCAB_SIZE < vocab.vocab_size <= D2S_VOCAB_SIZE:
            return f"vocab size {vocab.vocab_size} outside ({bpe.MIN_VOCAB_SIZE}, {D2S_VOCAB_SIZE}]"
        if vocab.vocab_size != self.out["train_tokenizer"]["vocab_size"]:
            return "saved vocab differs from the trained one"
        self.out["vocab"] = vocab
        return None

    def check_build_shards(self) -> str | None:
        path = self.dir / "corpus.sotk"
        vocab = self.out.get("vocab") or bpe.load_vocab(self.dir / "vocab.sovoc")
        checksum, seqs = _read_shard(path)
        if checksum != vocab.checksum:
            return "shard header checksum is not the vocabulary's"
        rows = self._corpus()
        if len(seqs) != len(rows):
            return f"shard holds {len(seqs)} sequences for {len(rows)} samples"
        for seq, row in zip(seqs, rows):
            if vocab.decode(seq) != row["text"]:
                return f"answer {row['answer_id']}: shard sequence does not decode to its sample text"
        index = json.loads(shards.index_path(path).read_text())
        total = sum(len(s) for s in seqs)
        if index["lengths"] != [len(s) for s in seqs] or index["total_tokens"] != total:
            return "shard index lengths/total do not match the shard"
        manifest = self.out["build_shards"]
        if manifest["sha256"] != _sha256(path) or manifest["total_tokens"] != total:
            return "shard manifest does not match the written shard"
        self.out["total_tokens"] = total
        return None

    def check_stats(self) -> str | None:
        stats = self.out["stats"]
        rows = self._corpus()
        total = self.out.get("total_tokens")
        if total is None:
            total = sum(json.loads(shards.index_path(self.dir / "corpus.sotk").read_text())["lengths"])
        if stats["total_tokens"] != total:
            return f"stats total_tokens {stats['total_tokens']} != shard index total {total}"
        if stats["n_samples"] != len(rows) or stats["n_comments_total"] != sum(r["n_comments"] for r in rows):
            return "stats sample/comment counts do not match the corpus"
        if sum(stats["length_histogram"].values()) != len(rows):
            return "stats histogram does not cover every sample"
        return None


class MineHistory(Workload):
    """ingest (with PostHistory) -> mine."""

    stages = ("ingest", "mine")

    def stage_mine(self) -> dict:
        cfg = self.config
        with record_store.RecordStore(self.dir / "store") as store:
            candidates = mining.mine_all(
                store,
                keywords=cfg.keywords,
                levenshtein_min=cfg.levenshtein_min,
                late_years=cfg.late_years,
                late_min_score=cfg.late_min_score,
            )
        n = mining.export_candidates(candidates, self.dir / "candidates.jsonl")
        return {"total": n}

    def check_mine(self) -> str | None:
        rows = _read_jsonl(self.dir / "candidates.jsonl")
        if len(rows) != self.out["mine"]["total"]:
            return f"candidates file holds {len(rows)} rows, summary says {self.out['mine']['total']}"
        for heuristic in ("keyword_comment", "edited_after_comment", "late_answer"):
            got = sorted(r["id"] for r in rows if r["heuristic"] == heuristic)
            if got != self.truth[heuristic]:
                return f"{heuristic}: {len(got)} candidates differ from {len(self.truth[heuristic])} planted"
        for r in rows:
            if r["heuristic"] == "edited_after_comment":
                want = f"levenshtein={self.truth['distances'][str(r['id'])]}"
                if r["evidence"] != want:
                    return f"answer {r['id']}: evidence {r['evidence']!r}, planted {want!r}"
        return None


class TrainV50k(Workload):
    """pretrain (MLM, V=50k) -> finetune (sequence head)."""

    stages = ("pretrain", "finetune")

    def setup(self) -> None:
        self.vocab = bpe.load_vocab(self.inputs / "vocab.sovoc")
        self.reader = shards.ShardReader(self.inputs / "corpus.sotk", expected_checksum=self.vocab.checksum)
        self.model_config = mlm.EncoderConfig(
            n_layers=2,
            hidden=64,
            n_heads=4,
            vocab_size=self.vocab.vocab_size,
            max_positions=self.config.max_len,
            seed=self.config.seed,
            vocab_checksum=self.vocab.checksum,
        )
        self.model = mlm.build_encoder(self.model_config)
        self.plan = mlm.plan_batches(V50K_TARGET_TOKENS, V50K_MICRO_BATCH, V50K_SEQ_LEN)

    def reset(self, rep_dir: Path) -> None:
        super().reset(rep_dir)
        if self.model is None:  # the previous repetition trained it
            self.model = mlm.build_encoder(self.model_config)

    def stage_pretrain(self) -> dict:
        model, self.model = self.model, None
        losses = mlm.train_mlm(
            model, self.reader, self.plan, steps=V50K_STEPS, lr=V50K_LR,
            seed=self.model_config.seed, mask_rate=0.15,
        )
        mlm.save_checkpoint(model, self.dir / "model.sockpt")
        self.count("mlm.pretrain_tokens", V50K_STEPS * self.plan.effective_tokens)
        return {"losses": losses}

    def _labeled(self, split: str, max_len: int) -> list[tuple[list[int], int]]:
        reader = shards.ShardReader(self.inputs / f"labeled_{split}.sotk", expected_checksum=self.vocab.checksum)
        labels = json.loads((self.inputs / f"labeled_{split}.labels.json").read_text())
        return [(ids[:max_len], label) for ids, label in zip(reader, labels)]

    def stage_finetune(self) -> dict:
        model = mlm.load_checkpoint(self.dir / "model.sockpt")
        max_len = min(self.config.max_len, model.config.max_positions)
        train_data = self._labeled("train", max_len)
        eval_data = self._labeled("eval", max_len)
        classifier = mlm.attach_head(model, mlm.HeadKind.SEQUENCE, 2)
        classifier, predictions = mlm.finetune(
            classifier, train_data, eval_data=eval_data, batch_size=V50K_FT_BATCH,
            lr=V50K_FT_LR, epochs=V50K_FT_EPOCHS, seed=self.config.seed,
        )
        report = metrics.metric_report([y for _, y in eval_data], predictions, 2, self.config.metric_mode)
        self.count("mlm.finetune_seqs", V50K_FT_EPOCHS * len(train_data) + len(eval_data))
        return {"predictions": predictions, "report": report}

    def check_pretrain(self) -> str | None:
        losses = self.out["pretrain"]["losses"]
        if len(losses) != V50K_STEPS or not all(math.isfinite(x) for x in losses):
            return f"losses not {V50K_STEPS} finite values: {losses}"
        if abs(losses[0] - math.log(self.vocab.vocab_size)) > 0.5:
            return f"first loss {losses[0]:.3f} is not near ln(V) = {math.log(self.vocab.vocab_size):.3f}"
        if not all(x < losses[0] for x in losses[-2:]):
            return f"last losses {losses[-2:]} are not below the first {losses[0]:.3f}"
        return None

    def check_finetune(self) -> str | None:
        preds = self.out["finetune"]["predictions"]
        labels = self.truth["labels"]["eval"]
        if len(preds) != len(labels):
            return f"{len(preds)} predictions for {len(labels)} held-out sequences"
        accuracy = sum(int(p == y) for p, y in zip(preds, labels)) / len(labels)
        if accuracy < V50K_MIN_ACCURACY:
            return f"held-out accuracy {accuracy:.3f} < {V50K_MIN_ACCURACY}"
        self.out["accuracy"] = accuracy
        return None


WORKLOADS = {"dump-to-shards": DumpToShards, "mine-history": MineHistory, "train-v50k": TrainV50k}


# -- tracing ---------------------------------------------------------------------


def _counter(key: str, amount=lambda args, result: 1):
    return lambda tracer, args, result: tracer.count(key, amount(args, result))


def _item_counter(key: str, amount=lambda item: 1):
    return lambda tracer, item: tracer.count(key, amount(item))


def trace_targets() -> list[tuple]:
    """(owner, attribute, span name, "call" | "gen", counter) per boundary."""
    RS = record_store.RecordStore
    EM = mlm_encoder.EncoderModel
    query = _counter("record_store.queries")

    def head_flops(mult):
        def amount(args, result):
            model, y = args[0], args[1]
            return mult * y.shape[0] * y.shape[1] * y.shape[2] * model.config.vocab_size
        return _counter("mlm.head_flop", amount)

    return [
        (dump_ingest, "stream_rows", "dump_ingest.stream_rows", "gen", None),
        (dump_ingest, "parse_post", "dump_ingest.parse_row", "call", _counter("dump_ingest.rows")),
        (dump_ingest, "parse_comment", "dump_ingest.parse_row", "call", _counter("dump_ingest.rows")),
        (dump_ingest, "parse_history", "dump_ingest.parse_row", "call", _counter("dump_ingest.rows")),
        (record_store, "build_store", "record_store.build_store", "call",
         _counter("record_store.insert_rows",
                  lambda a, r: r.load_report.n_posts + r.load_report.n_comments + r.load_report.n_history)),
        (RS, "get_post", "record_store.query", "call", query),
        (RS, "comments_for", "record_store.query", "call", query),
        (RS, "history_for", "record_store.query", "call", query),
        (RS, "comment_count_for", "record_store.query", "call", query),
        (RS, "answer_ids_for", "record_store.query", "call", query),
        (RS, "count", "record_store.query", "call", query),
        (RS, "iter_answers", "record_store.scan", "gen", _item_counter("record_store.scanned")),
        (RS, "iter_posts", "record_store.scan", "gen", _item_counter("record_store.scanned")),
        (corpus, "clean_text", "corpus.clean", "call", _counter("corpus.clean_chars", lambda a, r: len(a[0]))),
        (corpus, "clean_comment_text", "corpus.clean", "call",
         _counter("corpus.clean_chars", lambda a, r: len(a[0]))),
        (corpus, "build_samples", "corpus.build_samples", "gen", _item_counter("corpus.samples")),
        (corpus, "write_corpus", "corpus.write_corpus", "call", None),
        (corpus, "read_corpus_jsonl", "corpus.read_jsonl", "gen", None),
        (corpus, "corpus_stats", "corpus.corpus_stats", "call", None),
        (bpe, "train_bpe", "bpe.train_bpe", "call", _counter("bpe.merges", lambda a, r: len(r.merges))),
        (bpe.BpeVocab, "encode", "bpe.encode", "call", _counter("bpe.tokens", lambda a, r: len(r))),
        (bpe, "load_vocab", "bpe.load_vocab", "call", None),
        (bpe.BpeVocab, "save", "bpe.save", "call", None),
        (shards, "write_token_shard", "shards.write", "call", _counter("shards.tokens", lambda a, r: r[1])),
        (shards.ShardReader, "__iter__", "shards.read", "gen", None),
        (mining, "mine_all", "mining.mine_all", "call", _counter("mining.candidates", lambda a, r: len(r))),
        (mining, "mine_keyword_comments", "mining.keyword", "gen", None),
        (mining, "mine_edited_after_comment", "mining.edited", "gen", None),
        (mining, "mine_late_answers", "mining.late", "gen", None),
        (mining, "levenshtein", "mining.levenshtein", "call",
         _counter("mining.levenshtein_cells", lambda a, r: len(a[0]) * len(a[1]))),
        (mining, "extract_code", "mining.extract_code", "call", None),
        (mining, "export_candidates", "mining.export", "call", None),
        (EM, "hidden_states", "mlm.encoder_fwd", "call", None),
        (EM, "backward", "mlm.encoder_bwd", "call", None),
        (EM, "logits_mlm", "mlm.head_fwd", "call", head_flops(2)),
        (EM, "backward_mlm_head", "mlm.head_bwd", "call", head_flops(4)),
        (mlm_training, "mlm_loss_sums", "mlm.loss", "call", None),
        (mlm_masking, "make_masked_batch", "mlm.masking", "call", None),
        (mlm_training, "train_mlm", "mlm.train_mlm", "call", None),
        (mlm_training, "finetune", "mlm.finetune", "call", None),
        (mlm_encoder, "save_checkpoint", "mlm.checkpoint", "call", None),
        (mlm_encoder, "load_checkpoint", "mlm.checkpoint", "call", None),
    ]


def layer_metrics(tracer: Tracer, n_jobs: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures per job, averaged over the traced repetitions."""
    inc, own = tracer.totals()
    inc = {k: v / n_jobs for k, v in inc.items()}
    own = {k: v / n_jobs for k, v in own.items()}
    counts: dict[str, float] = {}
    for (_, key), v in tracer.counts.items():
        counts[key] = counts.get(key, 0.0) + v / n_jobs

    def t(name):
        return inc.get(name, 0.0)

    def n(key):
        return counts.get(key, 0.0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    parse_s = t("dump_ingest.stream_rows") + t("dump_ingest.parse_row")
    clean_s = t("corpus.clean")
    encode_s = t("bpe.encode")
    stage = {s: t(f"cli.{s}") for s in (
        "ingest", "build_corpus", "train_tokenizer", "build_shards", "stats", "mine", "pretrain", "finetune")}
    unattributed = sum(v for k, v in own.items() if k.startswith("cli.")) + max(
        0.0, traced_wall - sum(stage.values()))
    return {
        "dump_ingest.rows": ("count", n("dump_ingest.rows")),
        "dump_ingest.parse_s": ("s", parse_s),
        "dump_ingest.mb_s": ("MB/s", rate(n("dump_ingest.bytes") / 1e6, parse_s)),
        "record_store.insert_rows": ("count", n("record_store.insert_rows")),
        "record_store.insert_s": ("s", own.get("record_store.build_store", 0.0)),
        "record_store.queries": ("count", n("record_store.queries")),
        "record_store.query_s": ("s", t("record_store.query") + t("record_store.scan")),
        "corpus.clean_calls": ("count", float(sum(1 for s in tracer.spans if s[0] == "corpus.clean")) / n_jobs),
        "corpus.clean_s": ("s", clean_s),
        "corpus.clean_mb_s": ("MB/s", rate(n("corpus.clean_chars") / 1e6, clean_s)),
        "corpus.samples": ("count", n("corpus.samples")),
        "corpus.write_s": ("s", own.get("corpus.write_corpus", 0.0)),
        "bpe.train_s": ("s", t("bpe.train_bpe")),
        "bpe.train_kb_s": ("KB/s", rate(n("bpe.train_bytes") / 1e3, t("bpe.train_bpe"))),
        "bpe.merges": ("count", n("bpe.merges")),
        "bpe.encode_calls": ("count", float(sum(1 for s in tracer.spans if s[0] == "bpe.encode")) / n_jobs),
        "bpe.encode_s": ("s", encode_s),
        "bpe.encode_tok_s": ("tok/s", rate(n("bpe.tokens"), encode_s)),
        "shards.write_s": ("s", own.get("shards.write", 0.0)),
        "shards.tokens": ("count", n("shards.tokens")),
        "shards.read_s": ("s", t("shards.read")),
        "mining.answers_scanned": ("count", tracer.counted("record_store.scanned", "cli.mine") / n_jobs),
        "mining.candidates": ("count", n("mining.candidates")),
        "mining.keyword_s": ("s", t("mining.keyword")),
        "mining.edited_s": ("s", t("mining.edited")),
        "mining.late_s": ("s", t("mining.late")),
        "mining.levenshtein_calls": (
            "count", float(sum(1 for s in tracer.spans if s[0] == "mining.levenshtein")) / n_jobs),
        "mining.levenshtein_cells": ("count", n("mining.levenshtein_cells")),
        "mining.levenshtein_s": ("s", t("mining.levenshtein")),
        "mining.extract_code_s": ("s", t("mining.extract_code")),
        "mlm.head_s": ("s", t("mlm.head_fwd") + t("mlm.head_bwd")),
        "mlm.head_gflop": ("GFLOP", n("mlm.head_flop") / 1e9),
        "mlm.loss_s": ("s", own.get("mlm.loss", 0.0)),
        "mlm.masking_s": ("s", t("mlm.masking")),
        "mlm.encoder_fwd_s": ("s", t("mlm.encoder_fwd")),
        "mlm.encoder_bwd_s": ("s", t("mlm.encoder_bwd")),
        "mlm.optimizer_s": ("s", own.get("mlm.train_mlm", 0.0) + own.get("mlm.finetune", 0.0)),
        "mlm.pretrain_tok_s": ("tok/s", rate(n("mlm.pretrain_tokens"), stage["pretrain"])),
        "mlm.finetune_seq_s": ("seq/s", rate(n("mlm.finetune_seqs"), stage["finetune"])),
        **{f"cli.{s}_s": ("s", v) for s, v in stage.items()},
        "trace.unattributed_s": ("s", unattributed),
        "trace.overhead_s": ("s", traced_wall - untraced_wall),
    }


# -- machine speed ---------------------------------------------------------------

PROBE_INTERVAL_S = 0.02
# The probe loop's time when the host is quiet, from the fastest jobs seen on
# a 2.1 GHz Xeon vCPU; it only sets the scale of wall_s, not its spread.
PROBE_QUIET_S = 0.20e-3


def _probe_loop() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class SpeedProbe:
    """The machine's current single-thread speed, sampled on the job's thread.

    The host's other tenants slow this VM by up to 2x, in spells that last
    from seconds to minutes, and a slow spell slows every instruction the
    job's thread runs. While a job runs, a SIGALRM handler times a fixed
    pure-Python loop every PROBE_INTERVAL_S on that same thread, so the
    samples see the same spells the job does.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """How much slower than a quiet host the job's thread ran."""
        return statistics.median(self.samples) / PROBE_QUIET_S


# -- the closed loop -----------------------------------------------------------------


def _cpu_seconds() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def run_once(workload: Workload, rep_dir: Path, tracer: Tracer | None, probe: SpeedProbe | None) -> dict:
    """One repetition: every stage in order (timed), then every check."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    workload.reset(rep_dir)
    errors: dict[str, str] = {}
    if tracer is not None:
        tracer.install(trace_targets())
    workload.tracer = tracer
    cpu0 = _cpu_seconds()
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    try:
        for stage in workload.stages:
            span = tracer.begin(f"cli.{stage}") if tracer is not None else None
            try:
                workload.out[stage] = getattr(workload, f"stage_{stage}")()
            except Exception as exc:  # a failed stage is counted, the loop goes on
                errors[stage] = f"raised {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.end(span)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    finally:
        if probe is not None:
            probe.stop()
        workload.tracer = None
        if tracer is not None:
            tracer.uninstall()
    wrong = 0
    for stage in workload.stages:
        if stage in errors:
            continue
        try:
            problem = workload.check(stage)
        except Exception as exc:  # an output too broken to read is wrong
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            errors[stage] = problem
            wrong += 1
    for stage, msg in errors.items():
        print(f"{workload.__class__.__name__} {stage}: {msg}", file=sys.stderr)
    return {
        "wall": wall,
        "cpu": cpu,
        "slowdown": probe.slowdown() if probe is not None else None,
        "failed": len(errors),
        "wrong": wrong,
        "traced": tracer is not None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=int, required=True, help="CLOCK_MONOTONIC ns when the parent started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="write the trace's spans here (JSON)")
    args = ap.parse_args(argv)
    if not Path(sopipeline.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sopipeline imported from {sopipeline.__file__}, not from this checkout", file=sys.stderr)
        return 2

    work = Path(args.work)
    workload = WORKLOADS[args.workload](Path(args.inputs))
    workload.setup()
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    probe = None if args.trace else SpeedProbe()
    reps: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    # Start another repetition only if it should end within the window.
    # The traced run alternates untraced and traced ones and has both.
    while len(reps) < 1 + args.trace or time.perf_counter() - start + last <= args.seconds:
        t = time.perf_counter()
        traced = tracer if args.trace and len(reps) % 2 == 1 else None
        reps.append(run_once(workload, work / "rep", traced, probe))
        last = time.perf_counter() - t
    shutil.rmtree(work / "rep", ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    result = {
        "attempted": len(reps) * len(workload.stages),
        "failed": sum(r["failed"] for r in reps),
        "correct": all(r["wrong"] == 0 for r in reps),
        "setup_s": setup_s,
        "reps": len(reps),
        "elapsed_s": statistics.median(r["wall"] for r in plain),
    }
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        layers = layer_metrics(
            tracer, len(traced),
            statistics.median(r["wall"] for r in traced),
            statistics.median(r["wall"] for r in plain),
        )
        layers["cpu_s"] = ("s", statistics.median(r["cpu"] for r in plain))
        result["metrics"] = {k: {"value": v, "unit": u} for k, (u, v) in layers.items()}
        if args.trace_out:
            inc, own = tracer.totals()
            Path(args.trace_out).write_text(json.dumps({
                "workload": args.workload,
                "traced_jobs": len(traced),
                "spans": tracer.spans,
                "self_s": own,
                "inclusive_s": inc,
            }) + "\n")
    else:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + kids
        # Each job's time at a quiet host's speed: the host's slow spells
        # last up to minutes, so unscaled times move with them (README.md).
        result["metrics"] = {
            "wall_s": {"value": statistics.median(r["wall"] / r["slowdown"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
