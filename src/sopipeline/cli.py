"""Command-line entry point orchestrating the pipeline.

Every subcommand writes its artifact(s) and prints one single-line JSON
summary to stdout. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import dataclasses
import sys
from typing import Optional, Sequence

from . import bpe, corpus, linefiles, metrics, mining, scaling, shards
from .config import ENV_CONFIG_PATH, PipelineConfig, convert, integer, load_config, number, validate
from .dump_ingest import (
    TABLE_COMMENTS,
    TABLE_HISTORY,
    TABLE_POSTS,
    parse_comment,
    parse_history,
    parse_post,
    stream_rows,
)
from .errors import PipelineError, RowError, UsageError
from .mlm import (
    EncoderConfig,
    HeadKind,
    attach_head,
    build_encoder,
    finetune,
    load_checkpoint,
    plan_batches,
    save_checkpoint,
    train_mlm,
)
from .record_store import RecordStore, build_store

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for data
    errors, so route usage problems through UsageError instead."""

    def error(self, message: str):
        raise UsageError(message)


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True, separators=(",", ":")))


def _parse_rows(path: str, table: str, parse_fn, skipped: list):
    with open(path, "rb") as fh:
        for attrs in stream_rows(fh, table):
            try:
                yield parse_fn(attrs)
            except RowError as exc:
                skipped.append((table, exc.row_id, str(exc)))
                logger.warning("skipping %s row: %s", table, exc)


def _resolve(args: argparse.Namespace, config: PipelineConfig) -> PipelineConfig:
    """``config`` with every given flag whose dest names a field laid over the file
    value, read as the file's text (a list joined by commas) and checked by its rules."""
    flags = {}
    renamed = getattr(args, "renamed", {})
    for f in dataclasses.fields(PipelineConfig):
        if (text := getattr(args, f.name, None)) is not None:
            flag = "--" + renamed.get(f.name, f.name).replace("_", "-")
            flags[f.name] = convert(f.name, ",".join(text) if isinstance(text, list) else text, flag)
    seq_len = getattr(args, "seq_len", 1)
    if seq_len is None:
        # the file's max_len, also when --max-positions raises the model's
        args.seq_len = config.max_len
    elif seq_len < 1:
        raise UsageError(f"--seq-len {seq_len}: must be at least 1")
    return validate(dataclasses.replace(config, **flags))


# -- subcommand implementations -------------------------------------------------


def cmd_ingest(args, config: PipelineConfig) -> dict:
    skipped: list = []
    post_iter = _parse_rows(config.posts, TABLE_POSTS, parse_post, skipped)
    comment_iter = _parse_rows(config.comments, TABLE_COMMENTS, parse_comment, skipped)
    if config.posthistory:
        history_iter = _parse_rows(config.posthistory, TABLE_HISTORY, parse_history, skipped)
    else:
        history_iter = iter(())
    store = build_store(post_iter, comment_iter, history_iter, config.store_dir, skipped=skipped)
    report = store.load_report
    store.close()
    return {
        "store_dir": str(config.store_dir),
        "posts": report.n_posts,
        "comments": report.n_comments,
        "history": report.n_history,
        "skipped": len(report.skipped),
        "dangling_comments": len(report.dangling_comment_ids),
        "dangling_history": len(report.dangling_history_ids),
    }


def cmd_build_corpus(args, config: PipelineConfig) -> dict:
    out = args.out or {"jsonl": config.corpus, "shards": config.shards}[args.format]
    if not config.store_dir or not out:
        raise UsageError("build-corpus requires --store-dir and --out")
    tokenizer = None
    if args.format == "shards":
        if not config.vocab:
            raise UsageError("shard output requires --vocab")
        tokenizer = bpe.load_vocab(config.vocab)
    counters: dict = {"skipped_empty": 0}
    with RecordStore(config.store_dir) as store:
        samples = corpus.build_samples(
            store,
            min_score=config.min_score,
            min_comments=config.min_comments,
            replace_urls=config.replace_urls,
            replace_emails=config.replace_emails,
            counters=counters,
        )
        manifest = corpus.write_corpus(
            samples,
            out,
            fmt=args.format,
            tokenizer=tokenizer,
            manifest_extra={"seed": config.seed, **counters},
        )
    return {"out": str(out), **manifest}


def cmd_train_tokenizer(args, config: PipelineConfig) -> dict:
    texts = (s.text for s in corpus.read_corpus_jsonl(config.corpus))
    vocab = bpe.train_bpe(
        texts,
        config.vocab_size,
        sample_fraction=config.sample_fraction,
        seed=config.seed,
        isolate_digits=config.isolate_digits,
    )
    vocab.save(config.vocab)
    return {
        "out": str(config.vocab),
        "vocab_size": vocab.vocab_size,
        "n_merges": len(vocab.merges),
        "checksum": vocab.checksum.hex(),
        "seed": config.seed,
        "sample_fraction": config.sample_fraction,
    }


def cmd_stats(args, config: PipelineConfig) -> dict:
    tokenizer = None
    if args.vocab or args.use_config_vocab:
        if not config.vocab:
            raise UsageError("stats --use-config-vocab requires [paths] vocab in the config")
        tokenizer = bpe.load_vocab(config.vocab)
    stats = corpus.corpus_stats(corpus.read_corpus_jsonl(config.corpus), tokenizer, config.bucket_edges)
    return stats.to_dict()


def cmd_plan(args, config: PipelineConfig) -> dict:
    shape = scaling.ModelShape(
        n_layers=args.layers,
        hidden=args.hidden,
        vocab_size=config.vocab_size,
        max_positions=config.max_len,
        head_tied=not args.untied_head,
    )
    params = scaling.estimate_params(shape)
    floor = scaling.min_tokens(params)
    summary = {
        "shape": dataclasses.asdict(shape),
        "params": params,
        "min_tokens": floor,
        "steps_for_min_tokens": -(-floor // config.target_tokens),
    }
    if args.gpu_hours is not None:
        summary["dollars"] = scaling.estimate_cost(args.gpu_hours, args.rate, args.perf_ratio)
        summary["gpu_hours"] = args.gpu_hours
    if args.throughput is not None and args.gpu_hours is not None:
        plan = scaling.plan_budget(
            args.gpu_hours,
            [args.throughput],
            [shape],
            rate_per_hour=args.rate,
            perf_ratio=args.perf_ratio,
            batch_tokens=config.target_tokens,
        )
        summary["feasible"] = plan is not None
        if plan is not None:
            summary["steps_for_budget"] = plan.steps_for_budget
    return summary


def cmd_pretrain(args, config: PipelineConfig) -> dict:
    vocab = bpe.load_vocab(config.vocab)
    reader = shards.ShardReader(config.shards, expected_checksum=vocab.checksum)
    model_config = EncoderConfig(
        n_layers=args.layers,
        hidden=args.hidden,
        n_heads=args.heads,
        vocab_size=vocab.vocab_size,
        max_positions=config.max_len,
        seed=config.seed,
        tied_head=not args.untied_head,
        vocab_checksum=vocab.checksum,
    )
    model = build_encoder(model_config)
    plan = plan_batches(config.target_tokens, config.micro_batch, min(args.seq_len, config.max_len))
    counters: dict = {}
    losses = train_mlm(
        model,
        reader,
        plan,
        steps=config.steps,
        lr=config.lr,
        seed=config.seed,
        mask_rate=args.mask_rate,
        warmup_steps=args.warmup_steps,
        loss_csv=args.loss_csv,
        counters=counters,
    )
    save_checkpoint(model, config.checkpoint)
    return {
        "checkpoint": str(config.checkpoint),
        "parameter_count": model.parameter_count,
        "steps": len(losses),
        "accumulation_steps": plan.accumulation_steps,
        "effective_tokens": plan.effective_tokens,
        **counters,
        "first_loss": losses[0] if losses else None,
        "final_loss": losses[-1] if losses else None,
        "seed": config.seed,
    }


def _read_labeled_jsonl(
    path: str, vocab: bpe.BpeVocab, max_len: int
) -> tuple[list[tuple[list[int], int]], int]:
    """(ids, label) rows, ids led by the class marker and cut to ``max_len``,
    and the number of tokens cut."""
    rows = [values for _, values in linefiles.read_jsonl(path, {"text": str, "label": int})]
    data = []
    truncated = 0
    for ids, (_, label) in zip(vocab.encode_many(text for text, _ in rows), rows):
        ids = [bpe.CLASS_MARKER_ID] + ids
        truncated += max(0, len(ids) - max_len)
        data.append((ids[:max_len], label))
    return data, truncated


def cmd_finetune(args, config: PipelineConfig) -> dict:
    vocab = bpe.load_vocab(config.vocab)
    model = load_checkpoint(config.checkpoint)
    model.config.check_vocab(vocab.checksum, "tokenizer")
    max_len = min(args.seq_len, model.config.max_positions)
    train_data, truncated = _read_labeled_jsonl(args.train, vocab, max_len)
    eval_data = None
    if args.eval:
        eval_data, eval_truncated = _read_labeled_jsonl(args.eval, vocab, max_len)
        truncated += eval_truncated
    classifier = attach_head(model, HeadKind.SEQUENCE, args.classes)
    classifier, predictions = finetune(
        classifier,
        train_data,
        eval_data=eval_data,
        batch_size=args.batch_size,
        lr=config.lr,
        epochs=args.epochs,
        seed=config.seed,
        warmup_steps=args.warmup_steps,
    )
    target = eval_data if eval_data is not None else train_data
    y_true = [label for _, label in target]
    report = metrics.metric_report(y_true, predictions, args.classes, config.metric_mode)
    if args.out_checkpoint:
        save_checkpoint(classifier.encoder, args.out_checkpoint)
    return {"n_train": len(train_data), "n_eval": len(target), "truncated_tokens": truncated, **report}


def cmd_mine(args, config: PipelineConfig) -> dict:
    counters: dict = {"skipped_no_revisions": 0}
    with RecordStore(config.store_dir) as store:
        candidates = mining.mine_all(
            store,
            keywords=config.keywords,
            levenshtein_min=config.levenshtein_min,
            late_years=config.late_years,
            late_min_score=config.late_min_score,
            counters=counters,
        )
    n = mining.export_candidates(candidates, args.out)
    counts = {h.value: 0 for h in mining.Heuristic}
    for cand in candidates:
        counts[cand.heuristic.value] += 1
    return {"out": str(args.out), "total": n, "per_heuristic": counts, **counters}


def cmd_sample_annotations(args, config: PipelineConfig) -> dict:
    candidates = mining.import_candidates(args.candidates)
    sample = mining.sample_for_annotation(candidates, args.n, seed=config.seed)
    mining.export_candidates(sample.candidates, args.out)
    return {
        "out": str(args.out),
        "n_selected": len(sample.candidates),
        "per_heuristic": sample.per_heuristic,
        "shortfall": sample.shortfall,
        "seed": config.seed,
    }


def _labels_by_candidate(path: str) -> dict[int, str]:
    """The label per candidate id of one annotation file, which kappa reads
    as one annotator's: a second annotator for a candidate is refused."""
    labels: dict[int, str] = {}
    first_line: dict[int, int] = {}
    for lineno, record in mining.read_annotations(path):
        first = first_line.setdefault(record.candidate_id, lineno)
        if first != lineno:
            raise UsageError(
                f"{path}:{lineno}: candidate {record.candidate_id} labeled again, by {record.annotator!r} "
                f"(first at line {first}); kappa takes one annotator per file"
            )
        labels[record.candidate_id] = record.label
    return labels


def cmd_kappa(args, config: PipelineConfig) -> dict:
    by_id_a = _labels_by_candidate(args.a)
    by_id_b = _labels_by_candidate(args.b)
    only = sorted(by_id_a.keys() ^ by_id_b.keys())
    if only:
        holder = args.a if only[0] in by_id_a else args.b
        raise UsageError(f"{args.a} and {args.b} cover different candidate ids: {only[0]} is only in {holder}")
    ids = sorted(by_id_a)
    kappa = mining.cohen_kappa([by_id_a[i] for i in ids], [by_id_b[i] for i in ids])
    return {"kappa": kappa, "n": len(ids)}


def cmd_eval(args, config: PipelineConfig) -> dict:
    y_true: list[int] = []
    y_pred: list[int] = []
    for lineno, (true, pred) in linefiles.read_tsv(args.predictions, ("true", "pred")):
        y_true.append(linefiles.tsv_int(args.predictions, lineno, "true", true))
        y_pred.append(linefiles.tsv_int(args.predictions, lineno, "pred", pred))
    return metrics.metric_report(y_true, y_pred, args.classes, config.metric_mode)


# -- parser wiring ---------------------------------------------------------------


def _config_flags(p: argparse.ArgumentParser, *keys: str, **renamed: str) -> None:
    """Add ``--key-name`` for each config key in ``keys``, and ``--flag`` for
    each ``flag=key`` in ``renamed``, holding text that :func:`_resolve`
    reads; a tuple key (its default is a tuple) takes one or more values."""
    for flag, key in (*zip(keys, keys), *renamed.items()):
        nargs = "+" if isinstance(getattr(PipelineConfig, key), tuple) else None
        p.add_argument("--" + flag.replace("_", "-"), dest=key, nargs=nargs)
    p.set_defaults(renamed={key: flag for flag, key in renamed.items()})


def build_parser() -> _Parser:
    parser = _Parser(prog="sopipeline", description=__doc__)
    parser.add_argument("--config", help=f"config file (default: ${ENV_CONFIG_PATH})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse dump XML into an indexed record store")
    _config_flags(p, "posts", "comments", "posthistory", "store_dir")
    p.set_defaults(fn=cmd_ingest, needs=("posts", "comments", "store_dir"))

    p = sub.add_parser("build-corpus", help="filter + clean + assemble pre-training samples")
    _config_flags(p, "store_dir", "vocab", "min_score", "min_comments")
    p.add_argument("--out")
    p.add_argument("--format", choices=("jsonl", "shards"), default="jsonl")
    p.set_defaults(fn=cmd_build_corpus)

    p = sub.add_parser("train-tokenizer", help="learn a byte-level BPE vocabulary")
    _config_flags(p, "corpus", "vocab_size", "sample_fraction", "seed", out="vocab")
    p.set_defaults(fn=cmd_train_tokenizer, needs=("corpus", "vocab"))

    p = sub.add_parser("stats", help="corpus statistics and length histogram")
    _config_flags(p, "corpus", "bucket_edges")
    p.add_argument("--vocab", help="tokenizer for token-length buckets (default: character lengths)")
    p.add_argument(
        "--use-config-vocab",
        action="store_true",
        help="bucket by token length using the config [paths] vocab",
    )
    p.set_defaults(fn=cmd_stats, needs=("corpus",))

    p = sub.add_parser("plan", help="parameter count, token floor, training cost")
    p.add_argument("--layers", type=integer, required=True)
    p.add_argument("--hidden", type=integer, required=True)
    _config_flags(p, "vocab_size", max_positions="max_len")
    p.add_argument("--untied-head", action="store_true")
    p.add_argument("--gpu-hours", type=number)
    p.add_argument("--rate", type=number, default=scaling.DEFAULT_RATE_PER_HOUR)
    p.add_argument("--perf-ratio", type=number, default=scaling.DEFAULT_PERF_RATIO)
    p.add_argument("--throughput", type=number, help="tokens per GPU hour")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("pretrain", help="desk-scale MLM training on token shards")
    _config_flags(p, "shards", "vocab", "checkpoint", "micro_batch", "target_tokens", "steps", "lr", "seed",
                  max_positions="max_len")
    p.add_argument("--layers", type=integer, default=2)
    p.add_argument("--hidden", type=integer, default=64)
    p.add_argument("--heads", type=integer, default=4)
    p.add_argument("--seq-len", type=integer, help="tokens kept per sequence (default: max_len); a batch pads to its longest")
    p.add_argument("--mask-rate", type=number, default=0.15)
    p.add_argument("--warmup-steps", type=integer, default=0)
    p.add_argument("--untied-head", action="store_true")
    p.add_argument("--loss-csv")
    p.set_defaults(fn=cmd_pretrain, needs=("shards", "vocab", "checkpoint"))

    p = sub.add_parser("finetune", help="sequence classification on a checkpoint")
    _config_flags(p, "vocab", "checkpoint", "seed")
    p.add_argument("--train", required=True, help="JSONL with text/label fields")
    p.add_argument("--eval")
    p.add_argument("--classes", type=integer, required=True)
    p.add_argument("--batch-size", type=integer, default=32)
    p.add_argument("--lr", default="1e-5", help="default 1e-5, not the config's [batch] lr")
    p.add_argument("--epochs", type=integer, default=1)
    p.add_argument("--seq-len", type=integer, help="tokens kept per item (default: max_len); a batch pads to its longest")
    p.add_argument("--warmup-steps", type=integer, default=0)
    p.add_argument("--out-checkpoint")
    p.set_defaults(fn=cmd_finetune, needs=("vocab", "checkpoint"))

    p = sub.add_parser("mine", help="mine obsoletion candidates from a store")
    _config_flags(p, "store_dir", "keywords", "levenshtein_min", "late_years", "late_min_score")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mine, needs=("store_dir",))

    p = sub.add_parser("sample-annotations", help="balanced annotation draw")
    p.add_argument("--candidates", required=True)
    p.add_argument("--n", type=integer, required=True)
    _config_flags(p, "seed")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample_annotations)

    p = sub.add_parser("kappa", help="inter-annotator agreement from two TSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_kappa)

    p = sub.add_parser("eval", help="weighted metrics from a true/pred TSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--classes", type=integer, required=True)
    _config_flags(p, mode="metric_mode")
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("SOPIPELINE_LOGLEVEL", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config_path = args.config or os.environ.get(ENV_CONFIG_PATH)
        config = _resolve(args, load_config(config_path or None))
        # each subcommand's ``needs``: the keys it cannot run without
        missing = [key for key in getattr(args, "needs", ()) if not getattr(config, key)]
        if missing:
            raise UsageError(
                f"{args.command} requires {', '.join(missing)}: set by flag or in the config file"
            )
        _emit(args.fn(args, config))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
