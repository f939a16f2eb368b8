"""Config file parsing and validation."""

from dataclasses import fields

import pytest

from sopipeline.bpe import MIN_VOCAB_SIZE
from sopipeline.config import PipelineConfig, load_config, validate
from sopipeline.errors import UsageError
from sopipeline.metrics import WeightMode


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

    def test_min_comments_zero_rejected(self):
        # a sample needs a comment: 0 would fail build-corpus after truncating its output
        with pytest.raises(UsageError, match="min_comments"):
            validate(PipelineConfig(min_comments=0))
