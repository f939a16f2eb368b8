"""CLI subcommands: summaries, exit codes, end-to-end determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    answer_row,
    comment_row,
    history_row,
    question_row,
    rows_xml,
    store_from_rows,
    subcommand_parsers,
    ts,
)
import sopipeline
from sopipeline import bpe, corpus, mining, shards
from sopipeline.cli import _read_labeled_jsonl, _resolve, build_parser, main
from sopipeline.config import PipelineConfig
from sopipeline.corpus import PretrainSample
from sopipeline.errors import StoreError
from sopipeline.mining import MAX_LATE_YEARS, Heuristic, ObsoleteCandidate
from sopipeline.mlm import EncoderConfig, build_encoder, save_checkpoint
from sopipeline.record_store import RecordStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    summary = json.loads(out.out.strip().splitlines()[-1]) if out.out.strip() else None
    return code, summary, out.err


@pytest.fixture
def dump_files(tmp_path):
    posts = [question_row(1, created=ts(0)), question_row(2, created=ts(0))]
    comments = []
    cid = 100
    for i in range(12):
        aid = 10 + i
        posts.append(answer_row(aid, 1 + i % 2, score=1 + i % 3, created=ts(1),
                                body=f"<p>answer {i} see https://ex.io/{i}</p><code>print({i})</code>"))
        for j in range(1 + i % 2):
            cid += 1
            comments.append(comment_row(cid, aid, f"comment {j} on {i}", created=ts(2 + j)))
    posts_path = tmp_path / "Posts.xml"
    comments_path = tmp_path / "Comments.xml"
    history_path = tmp_path / "PostHistory.xml"
    posts_path.write_bytes(rows_xml(posts))
    comments_path.write_bytes(rows_xml(comments))
    history_path.write_bytes(rows_xml([]))
    return posts_path, comments_path, history_path


class TestPlan:
    def test_published_numbers(self, capsys):
        code, summary, _ = run_cli(
            capsys,
            "plan", "--layers", "24", "--hidden", "1536",
            "--vocab-size", "50000", "--max-positions", "2048",
            "--gpu-hours", "2880",
        )
        assert code == 0
        assert abs(summary["params"] - 762e6) / 762e6 < 0.02
        assert summary["min_tokens"] == 20 * summary["params"]
        assert summary["min_tokens"] >= 15_000_000_000
        assert summary["dollars"] == 1600

    def test_usage_error_exit_code(self, capsys):
        assert main(["plan", "--layers", "24"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_config_from_env_and_flag_override(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "p.conf"
        config.write_text("[tokenizer]\nvocab_size = 1000\n\n[sequence]\nmax_len = 256\n")
        monkeypatch.setenv("SOPIPELINE_CONFIG", str(config))
        code, summary, _ = run_cli(capsys, "plan", "--layers", "2", "--hidden", "64")
        assert code == 0
        assert summary["shape"]["vocab_size"] == 1000  # from env config
        assert summary["shape"]["max_positions"] == 256
        # explicit flag wins over the config file
        code, summary, _ = run_cli(
            capsys, "plan", "--layers", "2", "--hidden", "64", "--vocab-size", "500"
        )
        assert summary["shape"]["vocab_size"] == 500

    def test_invalid_config_is_usage_error(self, tmp_path, monkeypatch):
        config = tmp_path / "p.conf"
        config.write_text("[tokenizer]\nvocab_size = tiny\n")
        monkeypatch.setenv("SOPIPELINE_CONFIG", str(config))
        assert main(["plan", "--layers", "2", "--hidden", "64"]) == 1


class TestPipelineCommands:
    def test_ingest_and_stats(self, capsys, tmp_path, dump_files):
        posts, comments, history = dump_files
        store_dir = tmp_path / "store"
        code, summary, _ = run_cli(
            capsys,
            "ingest", "--posts", str(posts), "--comments", str(comments),
            "--posthistory", str(history), "--store-dir", str(store_dir),
        )
        assert code == 0
        assert summary["posts"] == 14
        assert (store_dir / "load_report.txt").exists()

        corpus_path = tmp_path / "corpus.jsonl"
        code, summary, _ = run_cli(
            capsys,
            "build-corpus", "--store-dir", str(store_dir), "--out", str(corpus_path),
        )
        assert code == 0
        assert summary["n_samples"] > 0

        code, summary, _ = run_cli(capsys, "stats", "--corpus", str(corpus_path))
        assert code == 0
        assert sum(summary["length_histogram"].values()) == summary["n_samples"]

    def test_data_error_exit_code(self, capsys, tmp_path):
        # corrupt store -> data error (2)
        bad = tmp_path / "nostore"
        bad.mkdir()
        code = main(["build-corpus", "--store-dir", str(bad), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_torn_store_meta_is_a_data_error(self, capsys, tmp_path):
        store = store_from_rows(tmp_path, [question_row(1, created=ts(0))])
        store.close()
        meta = store.path / "meta.json"
        meta.write_bytes(meta.read_bytes()[:10])
        code, _, err = run_cli(capsys, "mine", "--store-dir", str(store.path), "--out", str(tmp_path / "c.jsonl"))
        assert code == 2 and str(meta) in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_failed_reingest_leaves_no_sealed_store(self, capsys, tmp_path, dump_files):
        posts, comments, history = dump_files
        store_dir = tmp_path / "store"
        argv = ["ingest", "--posts", str(posts), "--comments", str(comments),
                "--posthistory", str(history), "--store-dir", str(store_dir)]
        assert main(argv) == 0
        RecordStore(store_dir).close()

        blob = posts.read_bytes()
        posts.write_bytes(blob[: len(blob) // 2])
        assert main(argv) == 2
        with pytest.raises(StoreError, match="meta.json"):
            RecordStore(store_dir)
        assert not (store_dir / "load_report.txt").exists()

    def test_bad_rows_skipped_and_accounted(self, capsys, tmp_path):
        rows = [
            question_row(1, created=ts(0)),
            {"Id": 2, "PostTypeId": 1, "CreationDate": ts(0)},  # no Body: skipped
            answer_row(10, 1, created=ts(1)),
            {"Id": "xx", "PostTypeId": 1, "Body": "b", "CreationDate": ts(0)},  # bad id
        ]
        posts = tmp_path / "Posts.xml"
        comments = tmp_path / "Comments.xml"
        posts.write_bytes(rows_xml(rows))
        comments.write_bytes(rows_xml([]))
        store_dir = tmp_path / "store"
        code, summary, _ = run_cli(
            capsys,
            "ingest", "--posts", str(posts), "--comments", str(comments),
            "--store-dir", str(store_dir),
        )
        assert code == 0
        # loaded = parsed minus skipped, and the report names each skip
        assert summary["posts"] == 2
        assert summary["skipped"] == 2
        report = (store_dir / "load_report.txt").read_text()
        assert "rows skipped: 2" in report
        assert report.count("skip posts") == 2

    def test_year_before_1000_reads_back(self, capsys, tmp_path):
        # the store's form pads the year to four digits, so its readers accept it
        early = "0999-12-31T23:00:00.000"
        posts = tmp_path / "Posts.xml"
        comments = tmp_path / "Comments.xml"
        posts.write_bytes(rows_xml([
            question_row(1, created=early),
            answer_row(10, 1, score=2, created=ts(0), body="<p>Better than the accepted answer.</p>"),
        ]))
        comments.write_bytes(rows_xml([comment_row(100, 10, "still works", created=early)]))
        store_dir = tmp_path / "store"
        code, summary, _ = run_cli(
            capsys,
            "ingest", "--posts", str(posts), "--comments", str(comments), "--store-dir", str(store_dir),
        )
        assert code == 0 and summary["skipped"] == 0

        corpus_path = tmp_path / "corpus.jsonl"
        code, summary, _ = run_cli(
            capsys, "build-corpus", "--store-dir", str(store_dir), "--out", str(corpus_path)
        )
        assert code == 0 and summary["n_samples"] == 1
        assert "still works" in corpus_path.read_text()

        cands = tmp_path / "candidates.jsonl"
        code, summary, _ = run_cli(capsys, "mine", "--store-dir", str(store_dir), "--out", str(cands))
        assert code == 0
        assert summary["per_heuristic"]["late_answer"] == 1
        with RecordStore(store_dir) as store:
            assert store.get_post(1).creation_date == early
            assert store.comments_for(10)[0].creation_date == early

    def test_mine_and_annotation_flow(self, capsys, tmp_path, miner_fixture):
        store, expected = miner_fixture
        store_dir = store.path
        cands = tmp_path / "candidates.jsonl"
        code, summary, _ = run_cli(
            capsys, "mine", "--store-dir", str(store_dir), "--out", str(cands)
        )
        assert code == 0
        assert summary["per_heuristic"]["keyword_comment"] == len(expected["keyword_comment"])
        assert summary["per_heuristic"]["edited_after_comment"] == len(
            expected["edited_after_comment"]
        )
        assert summary["per_heuristic"]["late_answer"] == len(expected["late_answer"])
        assert summary["skipped_no_revisions"] == 0

        sampled = tmp_path / "sampled.jsonl"
        code, summary, _ = run_cli(
            capsys,
            "sample-annotations", "--candidates", str(cands), "--n", "9",
            "--seed", "3", "--out", str(sampled),
        )
        assert code == 0
        assert summary["n_selected"] == 9

        # annotate and score agreement
        ids = [json.loads(line)["id"] for line in sampled.read_text().splitlines()]
        a_path, b_path = tmp_path / "a.tsv", tmp_path / "b.tsv"
        header = "candidate_id\tlabel\tannotator\n"
        a_path.write_text(
            header + "".join(f"{i}\t{'Obsolete' if k % 2 else 'NotObsolete'}\talice\n" for k, i in enumerate(ids))
        )
        b_path.write_text(
            header + "".join(f"{i}\t{'Obsolete' if k % 3 else 'NotObsolete'}\tbob\n" for k, i in enumerate(ids))
        )
        code, summary, _ = run_cli(capsys, "kappa", "--a", str(a_path), "--b", str(b_path))
        assert code == 0
        assert -1.0 <= summary["kappa"] <= 1.0

    def test_mine_counts_edited_answers_without_body_revisions(self, capsys, tmp_path):
        # 10 and 11 are marked edited and commented on, but only 11 has an
        # edit revision; 12 has none and is not marked edited.
        posts = [question_row(1, created=ts(0))] + [
            answer_row(aid, 1, score=2, created=ts(1), last_edit=None if aid == 12 else ts(9))
            for aid in (10, 11, 12)
        ]
        comments = [comment_row(100 + aid, aid, "please update", created=ts(2)) for aid in (10, 11, 12)]
        history = [history_row(200 + aid, aid, 2, "<p>v0</p>", created=ts(1)) for aid in (10, 11)]
        history.append(history_row(300, 11, 5, "<p>v1</p>", created=ts(9)))
        store = store_from_rows(tmp_path, posts, comments, history)
        store.close()
        code, summary, _ = run_cli(
            capsys, "mine", "--store-dir", str(store.path), "--out", str(tmp_path / "c.jsonl")
        )
        assert code == 0
        assert summary["total"] == 0
        assert summary["skipped_no_revisions"] == 1

    def test_eval_subcommand(self, capsys, tmp_path):
        pred = tmp_path / "preds.tsv"
        pred.write_text("true\tpred\n" + "1\t1\n1\t0\n0\t0\n0\t0\n")
        code, summary, _ = run_cli(
            capsys, "eval", "--predictions", str(pred), "--classes", "2", "--mode", "balanced"
        )
        assert code == 0
        assert summary["weighted_accuracy"] == pytest.approx(0.75)
        assert summary["weighted_f1"] == pytest.approx((0.8 + 2 / 3) / 2)


class TestConfigDrivenPipeline:
    def test_paths_come_from_config_file(self, capsys, tmp_path, dump_files):
        posts, comments, history = dump_files
        store_dir = tmp_path / "store"
        corpus_path = tmp_path / "corpus.jsonl"
        vocab_path = tmp_path / "vocab.sovoc"
        config = tmp_path / "pipeline.conf"
        config.write_text(
            f"""
            [run]
            seed = 5

            [paths]
            posts = {posts}
            comments = {comments}
            posthistory = {history}
            store_dir = {store_dir}
            corpus = {corpus_path}
            vocab = {vocab_path}

            [tokenizer]
            vocab_size = 300
            sample_fraction = 1.0
            """
        )
        base = ["--config", str(config)]
        code, summary, _ = run_cli(capsys, *base, "ingest")
        assert code == 0 and summary["posts"] == 14
        code, summary, _ = run_cli(capsys, *base, "build-corpus")
        assert code == 0 and summary["seed"] == 5
        code, summary, _ = run_cli(capsys, *base, "train-tokenizer")
        assert code == 0 and summary["seed"] == 5
        assert vocab_path.exists()
        code, summary, _ = run_cli(capsys, *base, "stats", "--use-config-vocab")
        assert code == 0
        assert summary["total_tokens"] is not None  # bucketed by token length


@pytest.fixture
def small_inputs(tmp_path):
    """Path placeholders for argv templates: a corpus, a predictions TSV and
    a store holding one answer with a "deprecated" comment."""
    corpus_path = tmp_path / "corpus.jsonl"
    texts = ["short one", "a somewhat longer sample text " * 2, "tiny"]
    corpus_path.write_text(
        "".join(json.dumps({"answer_id": i, "n_comments": 1, "text": t}) + "\n" for i, t in enumerate(texts))
    )
    preds = tmp_path / "preds.tsv"
    preds.write_text("true\tpred\n1\t0\n0\t0\n0\t0\n0\t0\n")
    store = store_from_rows(
        tmp_path,
        [question_row(1, created=ts(0)), answer_row(10, 1, created=ts(1))],
        [comment_row(100, 10, "this is deprecated now", created=ts(2))],
    )
    store.close()
    return {"tmp": tmp_path, "corpus": corpus_path, "preds": preds, "store": store.path}


def _argv(template, paths):
    return [arg.format(**paths) for arg in template]


class TestFlagsOverConfig:
    """Flags are laid over the config file's values and checked by its rules."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["train-tokenizer", "--corpus", "{corpus}", "--out", "{tmp}/v.sovoc", "--vocab-size", "0"],
             "vocab_size"),
            (["train-tokenizer", "--corpus", "{corpus}", "--out", "{tmp}/v.sovoc", "--seed", "-3"], "seed"),
            (["stats", "--corpus", "{corpus}", "--bucket-edges", "0"], "bucket_edges"),
            (["plan", "--layers", "2", "--hidden", "64", "--vocab-size", "0"], "vocab_size"),
        ],
        ids=["train-tokenizer-vocab-size-0", "train-tokenizer-seed-neg", "stats-bucket-edges-0",
             "plan-vocab-size-0"],
    )
    def test_invalid_flag_is_usage_error(self, capsys, small_inputs, argv, key):
        code, summary, err = run_cli(capsys, *_argv(argv, small_inputs))
        assert (code, summary) == (1, None)
        assert f"config value {key}:" in err
        assert not (small_inputs["tmp"] / "v.sovoc").exists()

    def test_use_config_vocab_without_vocab_is_usage_error(self, capsys, small_inputs):
        # no [paths] vocab: refused, not bucketed by characters
        conf = small_inputs["tmp"] / "p.conf"
        conf.write_text("[sequence]\nbucket_edges = 10, 20\n")
        code, summary, err = run_cli(
            capsys, "--config", str(conf), "stats", "--corpus", str(small_inputs["corpus"]), "--use-config-vocab"
        )
        assert (code, summary) == (1, None)
        assert "--use-config-vocab requires [paths] vocab" in err

    @pytest.mark.parametrize(
        "config, argv, flag, get, file_value, flag_value",
        [
            ("[paths]\nvocab = {tmp}/file.sovoc",
             ["train-tokenizer", "--corpus", "{corpus}", "--vocab-size", "270", "--sample-fraction", "1.0"],
             ["--out", "{tmp}/flag.sovoc"], lambda s: Path(s["out"]).name, "file.sovoc", "flag.sovoc"),
            ("[sequence]\nmax_len = 256", ["plan", "--layers", "1", "--hidden", "8"],
             ["--max-positions", "128"], lambda s: s["shape"]["max_positions"], 256, 128),
            ("[metrics]\nmetric_mode = uniform", ["eval", "--predictions", "{preds}", "--classes", "2"],
             ["--mode", "balanced"], lambda s: s["mode"], "uniform", "balanced"),
            ("[miner]\nkeywords = deprecated", ["mine", "--store-dir", "{store}", "--out", "{tmp}/c.jsonl"],
             ["--keywords", "retired"], lambda s: s["per_heuristic"]["keyword_comment"], 1, 0),
            ("[sequence]\nbucket_edges = 512, 1024", ["stats", "--corpus", "{corpus}"],
             ["--bucket-edges", "10", "20"], lambda s: sorted(s["length_histogram"]),
             ["0-512", "513-1024", ">1024"], ["0-10", "11-20", ">20"]),
        ],
        ids=["out-vocab", "max-positions-max_len", "mode-metric_mode", "keywords", "bucket-edges"],
    )
    def test_flag_overrides_file_value(
        self, capsys, small_inputs, config, argv, flag, get, file_value, flag_value
    ):
        conf = small_inputs["tmp"] / "p.conf"
        conf.write_text(config.format(**small_inputs) + "\n")
        base = ["--config", str(conf), *_argv(argv, small_inputs)]
        code, summary, _ = run_cli(capsys, *base)
        assert code == 0 and get(summary) == file_value
        code, summary, _ = run_cli(capsys, *base, *_argv(flag, small_inputs))
        assert code == 0 and get(summary) == flag_value

    def test_seq_len_defaults_to_file_max_len(self, capsys, small_inputs):
        tmp = small_inputs["tmp"]
        vocab = bpe.BpeVocab(merges=[])
        vocab.save(tmp / "v.sovoc")
        shards.write_token_shard(tmp / "c.sotk", vocab.encode_many(["some text to train on"] * 4),
                                 vocab.checksum)
        conf = tmp / "p.conf"
        conf.write_text("[sequence]\nmax_len = 16\n")
        argv = [
            "--config", str(conf), "pretrain", "--shards", str(tmp / "c.sotk"),
            "--vocab", str(tmp / "v.sovoc"), "--checkpoint", str(tmp / "m.sockpt"),
            "--layers", "1", "--hidden", "8", "--heads", "2", "--micro-batch", "4",
            "--target-tokens", "128", "--steps", "1",
        ]
        # --max-positions widens the model, not the sequences: 4 x 16 tokens, 2 accumulation steps
        code, summary, _ = run_cli(capsys, *argv, "--max-positions", "32")
        assert code == 0 and summary["accumulation_steps"] == 2
        assert summary["truncated_tokens"] == 4 * (21 - 16)  # 21 byte tokens a sample
        assert summary["real_tokens"] == summary["effective_tokens"] == 2 * 4 * 16
        code, summary, _ = run_cli(capsys, *argv, "--max-positions", "32", "--seq-len", "32")
        assert code == 0 and summary["accumulation_steps"] == 1
        assert summary["truncated_tokens"] == 0
        # each micro-batch is 21 wide, not 32: the plan's capacity holds 128 - 84 pad positions
        assert summary["real_tokens"] == 4 * 21 and summary["effective_tokens"] == 4 * 32

        train = tmp / "t.jsonl"
        train.write_text("".join(json.dumps({"text": "ab", "label": i % 2}) + "\n" for i in range(4)))
        for cmd in (argv, ["finetune", "--vocab", str(tmp / "v.sovoc"), "--checkpoint", str(tmp / "m.sockpt"),
                           "--train", str(train), "--classes", "2"]):
            code, _, err = run_cli(capsys, *cmd, "--seq-len", "0")
            assert code == 1 and "--seq-len 0" in err


class TestSettingProbes:
    """A setting that does not read, or that overflows the figure it feeds,
    exits 1 with one usage-error line naming the key or flag."""

    MINE = ["mine", "--store-dir", "{store}", "--out", "{tmp}/c.jsonl"]
    SAMPLE = ["sample-annotations", "--candidates", "{tmp}/none.jsonl", "--out", "{tmp}/c.jsonl"]
    PLAN = ["plan", "--layers", "2", "--hidden", "64"]

    @pytest.mark.parametrize(
        "config, argv, named",
        [
            ("[run]\nseed = 1_0", [*SAMPLE, "--n", "1"], "config [run] seed: cannot parse '1_0'"),
            ("", [*MINE, "--levenshtein-min", "1_0"], "--levenshtein-min: cannot parse '1_0'"),
            ("", [*SAMPLE, "--n", "1_0"], "--n: invalid integer value: '1_0'"),
            ("[miner]\nlate_years = inf", MINE, "config [miner] late_years: cannot parse 'inf'"),
            ("[miner]\nlate_years = 1e300", MINE, "config value late_years: must lie in"),
            ("", [*MINE, "--late-years", "1e300"], "config value late_years: must lie in"),
            ("", [*PLAN, "--gpu-hours", "inf"], "--gpu-hours: invalid number value: 'inf'"),
            ("", [*PLAN, "--gpu-hours", "1e308", "--rate", "10"], "gpu_hours x rate_per_hour / perf_ratio is not"),
            ("", [*PLAN, "--gpu-hours", "1e300", "--throughput", "1e300"], "gpu hours x throughput is not finite"),
        ],
        ids=["file-seed", "levenshtein-min", "n", "file-late-years-inf", "file-late-years-1e300", "late-years-1e300",
             "gpu-hours-inf", "cost-overflow", "tokens-overflow"],
    )
    def test_one_line_usage_error(self, capsys, small_inputs, config, argv, named):
        conf = small_inputs["tmp"] / "p.conf"
        conf.write_text(config + "\n")
        code, summary, err = run_cli(capsys, "--config", str(conf), *_argv(argv, small_inputs))
        assert (code, summary) == (1, None)
        assert err.startswith("usage error: ") and named in err and err.count("\n") == 1
        assert not (small_inputs["tmp"] / "c.jsonl").exists()

    def test_late_years_at_its_bound_mines(self, capsys, small_inputs):
        argv = _argv([*self.MINE, "--late-years", str(MAX_LATE_YEARS)], small_inputs)
        code, summary, _ = run_cli(capsys, *argv)
        assert code == 0 and summary["per_heuristic"]["late_answer"] == 0


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``sopipeline`` command in README's CLI block,
    continuation lines joined and ``[optional]`` parts given."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").translate({ord("["): None, ord("]"): None}).splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sopipeline ")]


class TestReadmeCli:
    """README's CLI block parses: a renamed or retyped flag fails here, not for a user."""

    SUBCOMMANDS = sorted(subcommand_parsers())

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_command_parses_and_reads(self, argv):
        args = build_parser().parse_args(argv)
        _resolve(args, PipelineConfig())  # each flag's text read as a setting, and checked

    def test_block_shows_every_subcommand(self):
        assert sorted({argv[0] for argv in _readme_commands()}) == self.SUBCOMMANDS

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_renders(self, capsys, command):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([command, "--help"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: sopipeline {command} ")


# Run in a fresh interpreter: the test process has long since imported SciPy.
_LAZY_SCIPY = """
import json, math, sys
import numpy as np
from sopipeline.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
from sopipeline.mlm import EncoderConfig, build_encoder
from sopipeline.mlm.encoder import _gauss_cdf
model = build_encoder(EncoderConfig(n_layers=1, hidden=8, n_heads=2, vocab_size=300, max_positions=8))
model.hidden_states(np.array([[6, 7, 8]]), np.ones((1, 3), dtype=bool))
assert "scipy.special" in sys.modules
from scipy.special import erf
x64 = np.random.default_rng(0).standard_normal(4096) * 4
for x in (x64.astype(np.float32), x64):
    got, want = _gauss_cdf(x), 0.5 * (1 + erf(x / math.sqrt(2)))
    assert got.dtype == want.dtype == x.dtype and got.tobytes() == want.tobytes(), x.dtype
"""


def test_scipy_loads_only_at_the_first_gelu(tmp_path, dump_files):
    posts, comments, history = dump_files
    store, out = str(tmp_path / "store"), str(tmp_path / "out")
    argvs = [
        ["ingest", "--posts", str(posts), "--comments", str(comments), "--posthistory", str(history),
         "--store-dir", store],
        ["build-corpus", "--store-dir", store, "--out", out + ".jsonl"],
        ["mine", "--store-dir", store, "--out", out + ".candidates.jsonl"],
    ]
    src = str(Path(sopipeline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY, json.dumps(argvs)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestTokenizerAndTraining:
    def test_tokenizer_shards_pretrain_finetune(self, capsys, tmp_path, dump_files):
        posts, comments, history = dump_files
        store_dir = tmp_path / "store"
        corpus_path = tmp_path / "corpus.jsonl"
        vocab_path = tmp_path / "vocab.sovoc"
        shard_path = tmp_path / "corpus.sotk"
        ckpt = tmp_path / "model.sockpt"

        assert main(["ingest", "--posts", str(posts), "--comments", str(comments),
                     "--store-dir", str(store_dir)]) == 0
        assert main(["build-corpus", "--store-dir", str(store_dir), "--out", str(corpus_path)]) == 0
        code, summary, _ = run_cli(
            capsys,
            "train-tokenizer", "--corpus", str(corpus_path), "--out", str(vocab_path),
            "--vocab-size", "300", "--sample-fraction", "1.0",
        )
        assert code == 0
        # stops early if no pair repeats; never exceeds the request
        assert 262 < summary["vocab_size"] <= 300

        assert main(["build-corpus", "--store-dir", str(store_dir), "--out", str(shard_path),
                     "--format", "shards", "--vocab", str(vocab_path)]) == 0

        code, summary, _ = run_cli(
            capsys,
            "pretrain", "--shards", str(shard_path), "--vocab", str(vocab_path),
            "--checkpoint", str(ckpt), "--layers", "1", "--hidden", "16", "--heads", "2",
            "--max-positions", "32", "--seq-len", "32", "--micro-batch", "4",
            "--target-tokens", "128", "--steps", "3", "--lr", "0.01", "--seed", "0",
            "--loss-csv", str(tmp_path / "loss.csv"),
        )
        assert code == 0
        assert summary["steps"] == 3
        assert (tmp_path / "loss.csv").read_text().startswith("step,loss")

        # tiny sequence-classification run over the checkpoint
        train_file = tmp_path / "train.jsonl"
        rows = [{"text": f"sample {i}", "label": i % 2} for i in range(8)]
        train_file.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, summary, _ = run_cli(
            capsys,
            "finetune", "--vocab", str(vocab_path), "--checkpoint", str(ckpt),
            "--train", str(train_file), "--classes", "2", "--epochs", "1", "--lr", "0.001",
        )
        assert code == 0
        assert summary["n_train"] == 8
        assert summary["truncated_tokens"] == 0
        assert "weighted_f1" in summary


    def test_finetune_refuses_checkpoint_of_other_vocabulary(self, capsys, tmp_path):
        # same size, different merges
        vocab_a, vocab_b = bpe.BpeVocab(merges=[(b"a", b"b")]), bpe.BpeVocab(merges=[(b"c", b"d")])
        assert vocab_a.vocab_size == vocab_b.vocab_size and vocab_a.checksum != vocab_b.checksum
        vocab_a.save(tmp_path / "a.sovoc")
        vocab_b.save(tmp_path / "b.sovoc")
        shards.write_token_shard(tmp_path / "c.sotk", vocab_a.encode_many(["ab cd ab cd"] * 4), vocab_a.checksum)
        ckpt = str(tmp_path / "m.sockpt")
        code, _, _ = run_cli(
            capsys,
            "pretrain", "--shards", str(tmp_path / "c.sotk"), "--vocab", str(tmp_path / "a.sovoc"),
            "--checkpoint", ckpt, "--layers", "1", "--hidden", "8", "--heads", "2",
            "--max-positions", "16", "--seq-len", "16", "--micro-batch", "4", "--target-tokens", "64",
            "--steps", "1",
        )
        assert code == 0
        train = tmp_path / "t.jsonl"
        train.write_text("".join(json.dumps({"text": "ab cd", "label": i % 2}) + "\n" for i in range(4)))
        argv = ["finetune", "--checkpoint", ckpt, "--train", str(train), "--classes", "2", "--epochs", "1"]
        code, summary, err = run_cli(capsys, *argv, "--vocab", str(tmp_path / "b.sovoc"))
        assert (code, summary) == (2, None)
        assert vocab_a.checksum.hex() in err and vocab_b.checksum.hex() in err
        code, _, _ = run_cli(capsys, *argv, "--vocab", str(tmp_path / "a.sovoc"))
        assert code == 0


def test_read_labeled_jsonl_counts_truncated_tokens(tmp_path):
    vocab = bpe.BpeVocab(merges=[])  # one token per byte
    path = tmp_path / "labeled.jsonl"
    rows = [{"text": "short", "label": 0}, {"text": "x" * 40, "label": 1}, {"text": "", "label": 0}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows) + "\n")
    data, truncated = _read_labeled_jsonl(str(path), vocab, max_len=16)
    assert [label for _, label in data] == [0, 1, 0]
    assert [len(ids) for ids, _ in data] == [6, 16, 1]
    assert all(ids[0] == bpe.CLASS_MARKER_ID for ids, _ in data)
    assert data[0][0][1:] == vocab.encode("short")
    assert truncated == 41 - 16  # class marker + 40 bytes, cut to 16


_CORPUS_ROW = {"answer_id": 1, "n_comments": 1, "text": "ab <RS> cd"}
_CANDIDATE_ROW = {"id": 1, "question_id": None, "heuristic": "keyword_comment", "evidence": "e",
                  "answer_text": "t", "score": 1}


class TestMalformedInputs:
    """A malformed line of any JSONL or TSV input is refused with its file and line."""

    @pytest.fixture
    def finetune_argv(self, tmp_path):
        vocab = bpe.BpeVocab(merges=[])
        vocab.save(tmp_path / "v.sovoc")
        config = EncoderConfig(n_layers=1, hidden=8, n_heads=2, vocab_size=vocab.vocab_size, max_positions=16,
                               vocab_checksum=vocab.checksum)
        save_checkpoint(build_encoder(config), tmp_path / "m.sockpt")
        return ["finetune", "--vocab", str(tmp_path / "v.sovoc"), "--checkpoint", str(tmp_path / "m.sockpt"),
                "--classes", "2", "--epochs", "1"]

    def test_malformed_checkpoint_config_is_data_error(self, capsys, tmp_path, finetune_argv):
        ckpt = tmp_path / "m.sockpt"
        ckpt.write_bytes(ckpt.read_bytes().replace(b'"float32"', b'"floatXX"', 1))
        train = tmp_path / "t.jsonl"
        train.write_text(json.dumps({"text": "ab", "label": 1}) + "\n")
        code, summary, err = run_cli(capsys, *finetune_argv, "--train", str(train))
        assert (code, summary) == (2, None)
        assert err.startswith(f"error: {ckpt}: malformed checkpoint config")

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--batch-size", "-1"), ("--epochs", "-1")])
    def test_finetune_refuses_bad_batch_size_and_epochs(self, capsys, tmp_path, finetune_argv, flag, value):
        train = tmp_path / "t.jsonl"
        train.write_text(json.dumps({"text": "ab", "label": 1}) + "\n" + json.dumps({"text": "cd", "label": 0}) + "\n")
        code, summary, err = run_cli(capsys, *finetune_argv, "--train", str(train), flag, value)
        assert (code, summary) == (1, None)
        assert err.startswith("usage error: ") and err.rstrip().endswith(f"got {value}")

    @pytest.mark.parametrize("flag", ["--train", "--eval"])
    @pytest.mark.parametrize(
        "bad_row",
        [b'{"text": "ab", "label"', b'{"label": 0}', b'{"text": "ab"}', b'{"text": "ab", "label": "x"}',
         b'{"text": "ab", "label": 1.5}', b'{"text": 3, "label": 0}', b'["ab", 0]', b'{"text": "a\xff", "label": 0}'],
        ids=["not-json", "no-text", "no-label", "label-string", "label-float", "text-number", "not-object",
             "not-utf8"],
    )
    def test_bad_labeled_row_is_data_error(self, capsys, tmp_path, finetune_argv, flag, bad_row):
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps({"text": "ab", "label": 1}) + "\n" + json.dumps({"text": "cd", "label": 0}) + "\n")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps({"text": "ab", "label": 1}).encode() + b"\n\n" + bad_row + b"\n")
        files = {"--train": good, "--eval": good, flag: bad}
        code, summary, err = run_cli(
            capsys, *finetune_argv, "--train", str(files["--train"]), "--eval", str(files["--eval"])
        )
        assert (code, summary) == (2, None)
        assert f"{bad}:3:" in err

    @pytest.mark.parametrize(
        "bad_line",
        [b"x\t1", b"1\t0.5", b"1\t", b"1\t\xff", b"1\t0_1", b"1\t 1 ", b"+1\t1", "1\t\u0661".encode()],
    )
    def test_non_integer_prediction_is_usage_error(self, capsys, tmp_path, bad_line):
        pred = tmp_path / "preds.tsv"
        pred.write_bytes(b"true\tpred\n1\t1\n" + bad_line + b"\n")
        code, summary, err = run_cli(capsys, "eval", "--predictions", str(pred), "--classes", "2")
        assert (code, summary) == (1, None)
        assert f"{pred}:3:" in err

    @pytest.mark.parametrize("command", ["stats", "train-tokenizer"])
    @pytest.mark.parametrize(
        "bad_row",
        [b'{"answer_id": 2, "n_comments": 1, "text"', b'{"answer_id": 2, "n_comments": 1, "text": "a\xff"}',
         b'{"answer_id": 2, "n_comments": 1}', b'{"answer_id": 2, "n_comments": "1", "text": "ab"}'],
        ids=["not-json", "not-utf8", "no-text", "n-comments-string"],
    )
    def test_bad_corpus_row_is_data_error(self, capsys, tmp_path, command, bad_row):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps(_CORPUS_ROW).encode() + b"\n\n" + bad_row + b"\n")
        vocab = tmp_path / "v.sovoc"
        out = ["--out", str(vocab)] if command == "train-tokenizer" else []
        code, summary, err = run_cli(capsys, command, "--corpus", str(path), *out)
        assert (code, summary) == (2, None)
        assert f"{path}:3:" in err
        assert not vocab.exists()

    @pytest.mark.parametrize(
        "bad_row",
        [b'{"id": 2', json.dumps({k: v for k, v in _CANDIDATE_ROW.items() if k != "score"}).encode(),
         json.dumps({**_CANDIDATE_ROW, "heuristic": "hunch"}).encode()],
        ids=["not-json", "no-score", "unknown-heuristic"],
    )
    def test_bad_candidate_row_is_data_error(self, capsys, tmp_path, bad_row):
        path = tmp_path / "candidates.jsonl"
        path.write_bytes(json.dumps(_CANDIDATE_ROW).encode() + b"\n\n" + bad_row + b"\n")
        out = tmp_path / "sample.jsonl"
        code, summary, err = run_cli(
            capsys, "sample-annotations", "--candidates", str(path), "--n", "3", "--out", str(out)
        )
        assert (code, summary) == (2, None)
        assert f"{path}:3:" in err
        assert not out.exists()

    def _annotations(self, tmp_path, rows_a: bytes, rows_b: bytes):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_bytes(b"candidate_id\tlabel\tannotator\n" + rows_a)
        b.write_bytes(b"candidate_id\tlabel\tannotator\n" + rows_b)
        return a, b

    def test_undecodable_annotation_is_usage_error(self, capsys, tmp_path):
        a, b = self._annotations(tmp_path, b"1\tObsolete\talice\n2\tObsolete\t\xff\n",
                                 b"1\tObsolete\tbob\n2\tNotObsolete\tbob\n")
        code, summary, err = run_cli(capsys, "kappa", "--a", str(a), "--b", str(b))
        assert (code, summary) == (1, None)
        assert f"{a}:3:" in err

    @pytest.mark.parametrize("cand_id", [b"0_1", b" 2 ", b"+2", "\u0662".encode()])
    def test_non_integer_candidate_id_is_usage_error(self, capsys, tmp_path, cand_id):
        a, b = self._annotations(tmp_path, b"1\tObsolete\talice\n" + cand_id + b"\tObsolete\talice\n",
                                 b"1\tObsolete\tbob\n2\tNotObsolete\tbob\n")
        code, summary, err = run_cli(capsys, "kappa", "--a", str(a), "--b", str(b))
        assert (code, summary) == (1, None)
        assert f"{a}:3: candidate_id must be an integer" in err

    def test_kappa_refuses_two_annotators_for_one_candidate(self, capsys, tmp_path):
        a, b = self._annotations(tmp_path, b"1\tObsolete\talice\n2\tObsolete\talice\n\n2\tNotObsolete\tcarol\n",
                                 b"1\tObsolete\tbob\n2\tNotObsolete\tbob\n")
        code, summary, err = run_cli(capsys, "kappa", "--a", str(a), "--b", str(b))
        assert (code, summary) == (1, None)
        assert f"{a}:5: candidate 2 labeled again, by 'carol' (first at line 3)" in err

    def test_kappa_names_first_id_only_one_file_holds(self, capsys, tmp_path):
        a, b = self._annotations(tmp_path, b"1\tObsolete\talice\n2\tObsolete\talice\n4\tObsolete\talice\n",
                                 b"1\tObsolete\tbob\n3\tNotObsolete\tbob\n4\tObsolete\tbob\n")
        code, summary, err = run_cli(capsys, "kappa", "--a", str(a), "--b", str(b))
        assert (code, summary) == (1, None)
        assert f"{a} and {b} cover different candidate ids: 2 is only in {a}" in err

    def test_written_lines_read_back_as_written(self, tmp_path):
        text = "na\u00efve \u65e5\u672c \u2028 <code>x <RS> y</code> <RS> ok"
        samples = [PretrainSample(answer_id=1, text=text, n_comments=1), PretrainSample(2, "plain", 3)]
        corpus.write_corpus(samples, tmp_path / "c.jsonl")
        assert list(corpus.read_corpus_jsonl(tmp_path / "c.jsonl")) == samples
        candidates = [ObsoleteCandidate(1, None, Heuristic.KEYWORD_COMMENT, text, text, 2),
                      ObsoleteCandidate(5, 4, Heuristic.LATE_ANSWER, "answer by", text, 7)]
        mining.export_candidates(candidates, tmp_path / "k.jsonl")
        assert mining.import_candidates(tmp_path / "k.jsonl") == candidates
        for name in ("c.jsonl", "k.jsonl"):
            # written raw, not escaped; only a newline ends a line
            assert "\u2028".encode() in (tmp_path / name).read_bytes()


class TestNeededInputs:
    """A subcommand without an input it needs exits 1 and names every missing key."""

    @pytest.fixture(autouse=True)
    def _no_env_config(self, monkeypatch):
        monkeypatch.delenv("SOPIPELINE_CONFIG", raising=False)

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["ingest"], ["posts", "comments", "store_dir"]),
            (["ingest", "--posts", "P.xml", "--posthistory", "H.xml"], ["comments", "store_dir"]),
            (["train-tokenizer"], ["corpus", "vocab"]),
            (["train-tokenizer", "--out", "{tmp}/v.sovoc"], ["corpus"]),
            (["stats"], ["corpus"]),
            (["pretrain"], ["shards", "checkpoint", "vocab"]),
            (["pretrain", "--shards", "c.sotk", "--checkpoint", "m.sockpt"], ["vocab"]),
            (["finetune", "--train", "{corpus}", "--classes", "2"], ["vocab", "checkpoint"]),
            (["finetune", "--train", "{corpus}", "--classes", "2", "--vocab", "v.sovoc"], ["checkpoint"]),
            (["mine", "--out", "{tmp}/c.jsonl"], ["store_dir"]),
        ],
    )
    def test_every_missing_key_named(self, capsys, small_inputs, argv, missing):
        code, summary, err = run_cli(capsys, *_argv(argv, small_inputs))
        assert (code, summary) == (1, None)
        named = {key for key in ("posts", "comments", "posthistory", "store_dir", "corpus", "vocab",
                                 "shards", "checkpoint") if re.search(rf"\b{key}\b", err)}
        assert named == set(missing)
        assert not (small_inputs["tmp"] / "v.sovoc").exists()
        assert not (small_inputs["tmp"] / "c.jsonl").exists()

    def test_needed_key_from_config_file(self, capsys, small_inputs):
        conf = small_inputs["tmp"] / "p.conf"
        conf.write_text(f"[paths]\nstore_dir = {small_inputs['store']}\n")
        out = small_inputs["tmp"] / "c.jsonl"
        code, summary, _ = run_cli(capsys, "--config", str(conf), "mine", "--out", str(out))
        assert code == 0 and summary["total"] == 1 and out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mine", "--store-dir", "{store}"], "--out"),
            (["finetune", "--vocab", "v.sovoc", "--checkpoint", "m.sockpt", "--classes", "2"], "--train"),
        ],
    )
    def test_flag_without_key_is_required(self, capsys, small_inputs, argv, flag):
        code, summary, err = run_cli(capsys, *_argv(argv, small_inputs))
        assert (code, summary) == (1, None)
        assert flag in err

    def test_min_comments_zero_refused_before_output_is_touched(self, capsys, small_inputs):
        out = small_inputs["tmp"] / "corpus_out.jsonl"
        out.write_text("kept\n")
        code, summary, err = run_cli(
            capsys, "build-corpus", "--store-dir", str(small_inputs["store"]), "--out", str(out),
            "--min-comments", "0",
        )
        assert (code, summary) == (1, None)
        assert "config value min_comments:" in err
        assert out.read_text() == "kept\n"
