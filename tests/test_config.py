"""Config file parsing and validation."""

import re
from dataclasses import fields
from datetime import timedelta

import pytest

from conftest import subcommand_parsers
from sopipeline import cli, config as config_module
from sopipeline.bpe import MIN_VOCAB_SIZE
from sopipeline.config import PipelineConfig, load_config, validate
from sopipeline.errors import UsageError
from sopipeline.metrics import WeightMode
from sopipeline.mining import MAX_LATE_YEARS


def write(tmp_path, text):
    path = tmp_path / "pipeline.conf"
    path.write_text(text)
    return path


# every key: its section, a non-default value as written in the file, and as loaded
EVERY_KEY = {
    "seed": ("run", "7", 7),
    "posts": ("paths", "Posts.xml", "Posts.xml"),
    "comments": ("paths", "Comments.xml", "Comments.xml"),
    "posthistory": ("paths", "PostHistory.xml", "PostHistory.xml"),
    "store_dir": ("paths", "store", "store"),
    "corpus": ("paths", "corpus.jsonl", "corpus.jsonl"),
    "vocab": ("paths", "v.sovoc", "v.sovoc"),
    "shards": ("paths", "c.sotk", "c.sotk"),
    "checkpoint": ("paths", "m.sockpt", "m.sockpt"),
    "min_score": ("filter", "2", 2),
    "min_comments": ("filter", "3", 3),
    "replace_urls": ("cleaning", "false", False),
    "replace_emails": ("cleaning", "off", False),
    "vocab_size": ("tokenizer", "300", 300),
    "sample_fraction": ("tokenizer", "0.5", 0.5),
    "isolate_digits": ("tokenizer", "yes", True),
    "max_len": ("sequence", "256", 256),
    "bucket_edges": ("sequence", "128, 256", (128, 256)),
    "target_tokens": ("batch", "1000", 1000),
    "micro_batch": ("batch", "4", 4),
    "lr": ("batch", "0.5", 0.5),
    "steps": ("batch", "3", 3),
    "levenshtein_min": ("miner", "50", 50),
    "late_years": ("miner", "2.5", 2.5),
    "late_min_score": ("miner", "3", 3),
    "keywords": ("miner", "deprecated, retired", ("deprecated", "retired")),
    "metric_mode": ("metrics", "balanced", WeightMode.BALANCED),
}
SECTIONS = sorted({section for section, _, _ in EVERY_KEY.values()})

# the flags each subcommand cannot be parsed without
REQUIRED_FLAGS = {
    "plan": ["--layers", "1", "--hidden", "8"],
    "finetune": ["--train", "t.jsonl", "--classes", "2"],
    "mine": ["--out", "c.jsonl"],
    "sample-annotations": ["--candidates", "c.jsonl", "--n", "1", "--out", "s.jsonl"],
    "eval": ["--predictions", "p.tsv", "--classes", "2"],
}


def _key_flags():
    """(subcommand, flag, key) for every option whose dest is a config key."""
    return [(name, action.option_strings[0], action.dest)
            for name, p in subcommand_parsers().items() for action in p._actions if action.dest in EVERY_KEY]


def resolve(command, *argv):
    """The config that ``command`` runs with, given ``argv`` and no file."""
    return cli._resolve(cli.build_parser().parse_args([command, *REQUIRED_FLAGS.get(command, []), *argv]),
                        PipelineConfig())


class TestEveryKey:
    def test_table_covers_every_field(self):
        assert set(EVERY_KEY) == {f.name for f in fields(PipelineConfig)}

    def test_each_key_loads_from_its_section(self, tmp_path):
        text = "".join(
            f"[{section}]\n"
            + "".join(f"{key} = {raw}\n" for key, (s, raw, _) in EVERY_KEY.items() if s == section)
            for section in SECTIONS
        )
        config = load_config(write(tmp_path, text))
        default = PipelineConfig()
        for key, (_, _, value) in EVERY_KEY.items():
            assert getattr(default, key) != value
            assert getattr(config, key) == value and type(getattr(config, key)) is type(value)
        assert config == PipelineConfig(**{key: value for key, (_, _, value) in EVERY_KEY.items()})

    @pytest.mark.parametrize("key", sorted(EVERY_KEY))
    def test_key_in_another_section_rejected(self, tmp_path, key):
        section, raw, _ = EVERY_KEY[key]
        for other in SECTIONS:
            if other != section:
                with pytest.raises(UsageError, match=rf"\b{key}\b.*\[{other}\]"):
                    load_config(write(tmp_path, f"[{other}]\n{key} = {raw}\n"))

    @pytest.mark.parametrize("command, flag, key", _key_flags(), ids=lambda x: x.lstrip("-"))
    def test_each_flag_loads_the_file_value(self, command, flag, key):
        _, raw, value = EVERY_KEY[key]
        loaded = getattr(resolve(command, flag, *[x.strip() for x in raw.split(",")]), key)
        assert loaded == value and type(loaded) is type(value)

    def test_only_the_boolean_keys_have_no_flag(self):
        unflagged = set(EVERY_KEY) - {key for _, _, key in _key_flags()}
        assert unflagged == {"replace_urls", "replace_emails", "isolate_digits"}

    @pytest.mark.parametrize(
        "section, key, raw",
        [
            ("run", "seed", "1.5"),
            ("cleaning", "replace_urls", "maybe"),
            ("batch", "lr", "fast"),
            ("sequence", "bucket_edges", "128, big"),
        ],
    )
    def test_unparseable_value_names_key(self, tmp_path, section, key, raw):
        with pytest.raises(UsageError, match=rf"\b{key}\b"):
            load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))


# the texts both readers refuse, and what each reader makes of the texts it accepts
REFUSED = ["1_0", "+3", " 7 ", "١٢", "", "nan", "inf", "1e400"]
INTEGERS = {"7": 7, "12": 12, "-4": -4, "0": 0}
NUMBERS = {"7": 7.0, "12": 12.0, "-4": -4.0, "0": 0.0, "0.5": 0.5, "1e-5": 1e-5, ".5": 0.5}
# per reader: what it accepts, a file key [section] key, that key's flag, and a plain flag it reads
READERS = {
    "integer": (INTEGERS, ("run", "seed"), ("sample-annotations", "--seed"), ("sample-annotations", "--n")),
    "number": (NUMBERS, ("miner", "late_years"), ("mine", "--late-years"), ("plan", "--gpu-hours")),
}


@pytest.fixture
def unbounded(monkeypatch):
    """Bounds off, so a value shows as its reader read it."""
    monkeypatch.setattr(config_module, "validate", lambda config: config)
    monkeypatch.setattr(cli, "validate", lambda config: config)


@pytest.mark.parametrize("text", [*NUMBERS, *REFUSED], ids=repr)
@pytest.mark.parametrize("reader", sorted(READERS))
class TestNumberGrammar:
    """One grammar per reader, the same from a file value, a key's flag and a plain flag."""

    def test_file_value(self, tmp_path, unbounded, reader, text):
        accepted, (section, key), _, _ = READERS[reader]
        path = write(tmp_path, f"[{section}]\n{key} = {text}\n")
        want = accepted.get(text.strip())  # configparser strips a file value
        if want is None:
            refused = rf"^config \[{section}\] {key}: cannot parse {re.escape(repr(text.strip()))}"
            with pytest.raises(UsageError, match=refused):
                load_config(path)
        else:
            loaded = getattr(load_config(path), key)
            assert loaded == want and type(loaded) is type(want)

    def test_key_flag(self, unbounded, reader, text):
        accepted, (_, key), (command, flag), _ = READERS[reader]
        want = accepted.get(text)
        if want is None:
            with pytest.raises(UsageError, match=rf"^{flag}: cannot parse {re.escape(repr(text))}"):
                resolve(command, flag, text)
        else:
            loaded = getattr(resolve(command, flag, text), key)
            assert loaded == want and type(loaded) is type(want)

    def test_plain_flag(self, reader, text):
        accepted, _, _, (command, flag) = READERS[reader]
        want = accepted.get(text)
        argv = [command, *REQUIRED_FLAGS[command], flag, text]
        if want is None:
            refused = rf"^argument {flag}: invalid {reader} value: {re.escape(repr(text))}$"
            with pytest.raises(UsageError, match=refused):
                cli.build_parser().parse_args(argv)
        else:
            loaded = getattr(cli.build_parser().parse_args(argv), flag.lstrip("-").replace("-", "_"))
            assert loaded == want and type(loaded) is type(want)


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.min_score == 1
        assert config.vocab_size == 50_000
        assert config.bucket_edges == (512, 1024, 2048)
        assert config.levenshtein_min == 100
        assert config.late_years == 1.5

    def test_parses_sections_and_overrides(self, tmp_path):
        path = write(
            tmp_path,
            """
            [run]
            seed = 7

            [filter]
            min_score = 2
            min_comments = 3

            [tokenizer]
            vocab_size = 300
            sample_fraction = 0.5

            [sequence]
            bucket_edges = 128, 256

            [miner]
            keywords = deprecated, retired

            [metrics]
            metric_mode = balanced
            """,
        )
        config = load_config(path)
        assert config.seed == 7
        assert config.min_score == 2
        assert config.min_comments == 3
        assert config.vocab_size == 300
        assert config.sample_fraction == 0.5
        assert config.bucket_edges == (128, 256)
        assert config.keywords == ("deprecated", "retired")
        assert config.metric_mode is WeightMode.BALANCED

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[nonsense]\nx = 1\n")
        with pytest.raises(UsageError) as exc_info:
            load_config(path)
        assert "nonsense" in str(exc_info.value)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[filter]\nmin_score = 1\nbogus_key = 2\n")
        with pytest.raises(UsageError) as exc_info:
            load_config(path)
        assert "bogus_key" in str(exc_info.value)

    def test_bad_value_names_key(self, tmp_path):
        path = write(tmp_path, "[tokenizer]\nvocab_size = many\n")
        with pytest.raises(UsageError) as exc_info:
            load_config(path)
        assert "vocab_size" in str(exc_info.value)

    def test_out_of_bounds_names_key(self, tmp_path):
        path = write(tmp_path, "[tokenizer]\nsample_fraction = 1.5\n")
        with pytest.raises(UsageError) as exc_info:
            load_config(path)
        assert "sample_fraction" in str(exc_info.value)

    @pytest.mark.parametrize(
        "key, bound",
        [("seed", 0), ("min_score", 0), ("min_comments", 1), ("vocab_size", MIN_VOCAB_SIZE), ("max_len", 1),
         ("target_tokens", 1), ("micro_batch", 1), ("lr", 0), ("steps", 0), ("levenshtein_min", 0),
         ("late_min_score", 0)],
    )
    def test_each_lower_bound_names_key(self, tmp_path, key, bound):
        section = EVERY_KEY[key][0]
        assert getattr(load_config(write(tmp_path, f"[{section}]\n{key} = {bound}\n")), key) == bound
        refused = rf"^config value {key}: must be at least {bound}, got {bound - 1}(\.0)?$"
        with pytest.raises(UsageError, match=refused):
            load_config(write(tmp_path, f"[{section}]\n{key} = {bound - 1}\n"))

    def test_vocab_too_small_rejected(self, tmp_path):
        path = write(tmp_path, "[tokenizer]\nvocab_size = 100\n")
        with pytest.raises(UsageError):
            load_config(path)

    def test_non_increasing_edges_rejected(self, tmp_path):
        path = write(tmp_path, "[sequence]\nbucket_edges = 512, 512\n")
        with pytest.raises(UsageError) as exc_info:
            load_config(path)
        assert "bucket_edges" in str(exc_info.value)

    def test_bad_metric_mode(self, tmp_path):
        path = write(tmp_path, "[metrics]\nmetric_mode = quadratic\n")
        with pytest.raises(UsageError):
            load_config(path)

    def test_bad_metric_mode_lists_the_modes(self, tmp_path):
        path = write(tmp_path, "[metrics]\nmetric_mode = quadratic\n")
        with pytest.raises(UsageError) as exc_info:
            load_config(path)
        message = str(exc_info.value)
        assert "metric_mode" in message and "quadratic" in message
        assert all(mode.value in message for mode in WeightMode)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_config(tmp_path / "absent.conf")

    def test_validate_direct(self):
        config = PipelineConfig()
        config.late_years = -1
        with pytest.raises(UsageError) as exc_info:
            validate(config)
        assert "late_years" in str(exc_info.value)

    def test_late_years_bounded_by_the_longest_timedelta(self, tmp_path):
        timedelta(days=MAX_LATE_YEARS * 365)  # the miner's delay holds
        assert load_config(write(tmp_path, f"[miner]\nlate_years = {MAX_LATE_YEARS}\n")).late_years == MAX_LATE_YEARS
        for text in ("1e300", str(MAX_LATE_YEARS + 1)):
            with pytest.raises(UsageError, match=rf"^config value late_years: must lie in \(0, {MAX_LATE_YEARS}\]$"):
                load_config(write(tmp_path, f"[miner]\nlate_years = {text}\n"))

    def test_min_comments_zero_rejected(self):
        # a sample needs a comment: 0 would fail build-corpus after truncating its output
        with pytest.raises(UsageError, match="min_comments"):
            validate(PipelineConfig(min_comments=0))
