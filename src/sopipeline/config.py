"""Declarative pipeline configuration.

Line-oriented ``key = value`` file with ``[section]`` headers (INI syntax).
Unknown sections or keys are rejected by name, as are out-of-bounds values;
command-line flags override file values. All randomness derives from the
single ``[run] seed``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import UsageError
from .metrics import WeightMode
from .mining import (
    DEFAULT_LATE_MIN_SCORE,
    DEFAULT_LATE_YEARS,
    DEFAULT_LEVENSHTEIN_MIN,
    OBSOLETION_KEYWORDS,
)

ENV_CONFIG_PATH = "SOPIPELINE_CONFIG"


@dataclass
class PipelineConfig:
    # [run]
    seed: int = 0
    # [paths]
    posts: Optional[str] = None
    comments: Optional[str] = None
    posthistory: Optional[str] = None
    store_dir: Optional[str] = None
    corpus: Optional[str] = None
    vocab: Optional[str] = None
    shards: Optional[str] = None
    checkpoint: Optional[str] = None
    # [filter]
    min_score: int = 1
    min_comments: int = 1
    # [cleaning]
    replace_urls: bool = True
    replace_emails: bool = True
    # [tokenizer]
    vocab_size: int = 50_000
    sample_fraction: float = 0.10
    isolate_digits: bool = False
    # [sequence]
    max_len: int = 2048
    bucket_edges: tuple[int, ...] = (512, 1024, 2048)
    # [batch]
    target_tokens: int = 500_000
    micro_batch: int = 8
    lr: float = 0.01
    steps: int = 100
    # [miner]
    levenshtein_min: int = DEFAULT_LEVENSHTEIN_MIN
    late_years: float = DEFAULT_LATE_YEARS
    late_min_score: int = DEFAULT_LATE_MIN_SCORE
    keywords: tuple[str, ...] = OBSOLETION_KEYWORDS
    # [metrics]
    metric_mode: WeightMode = WeightMode.INVERSE_FREQUENCY


_SCHEMA: dict[str, dict[str, str]] = {
    "run": {"seed": "int"},
    "paths": {
        "posts": "str",
        "comments": "str",
        "posthistory": "str",
        "store_dir": "str",
        "corpus": "str",
        "vocab": "str",
        "shards": "str",
        "checkpoint": "str",
    },
    "filter": {"min_score": "int", "min_comments": "int"},
    "cleaning": {"replace_urls": "bool", "replace_emails": "bool"},
    "tokenizer": {"vocab_size": "int", "sample_fraction": "float", "isolate_digits": "bool"},
    "sequence": {"max_len": "int", "bucket_edges": "int_list"},
    "batch": {"target_tokens": "int", "micro_batch": "int", "lr": "float", "steps": "int"},
    "miner": {
        "levenshtein_min": "int",
        "late_years": "float",
        "late_min_score": "int",
        "keywords": "str_list",
    },
    "metrics": {"metric_mode": "str"},
}

def _convert(section: str, key: str, raw: str):
    kind = _SCHEMA[section][key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "int_list":
            return tuple(int(x.strip()) for x in raw.split(",") if x.strip())
        if kind == "str_list":
            return tuple(x.strip() for x in raw.split(",") if x.strip())
        return raw.strip()
    except ValueError:
        raise UsageError(f"config [{section}] {key}: cannot parse {raw!r} as {kind}") from None


def validate(config: PipelineConfig) -> PipelineConfig:
    def check(cond: bool, key: str, message: str) -> None:
        if not cond:
            raise UsageError(f"config value {key}: {message}")

    from .bpe import MIN_VOCAB_SIZE

    check(config.seed >= 0, "seed", "must be non-negative")
    check(config.min_score >= 0, "min_score", "must be non-negative")
    check(config.min_comments >= 0, "min_comments", "must be non-negative")
    check(
        config.vocab_size >= MIN_VOCAB_SIZE,
        "vocab_size",
        f"must be at least {MIN_VOCAB_SIZE}",
    )
    check(0 < config.sample_fraction <= 1, "sample_fraction", "must lie in (0, 1]")
    check(config.max_len >= 1, "max_len", "must be at least 1")
    check(len(config.bucket_edges) >= 1, "bucket_edges", "must list at least one edge")
    check(
        all(a < b for a, b in zip(config.bucket_edges, config.bucket_edges[1:]))
        and config.bucket_edges[0] > 0,
        "bucket_edges",
        "must be strictly increasing positive integers",
    )
    check(config.target_tokens >= 1, "target_tokens", "must be positive")
    check(config.micro_batch >= 1, "micro_batch", "must be positive")
    check(config.lr >= 0, "lr", "must be non-negative")
    check(config.steps >= 0, "steps", "must be non-negative")
    check(config.levenshtein_min >= 0, "levenshtein_min", "must be non-negative")
    check(config.late_years > 0, "late_years", "must be positive")
    check(config.late_min_score >= 0, "late_min_score", "must be non-negative")
    check(len(config.keywords) >= 1, "keywords", "must list at least one keyword")
    return config


def load_config(path: Optional[str | Path]) -> PipelineConfig:
    """Parse + validate a config file; None gives validated defaults."""
    config = PipelineConfig()
    if path is None:
        return validate(config)
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise UsageError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise UsageError(f"config: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise UsageError(f"config: unknown key {key!r} in section [{section}]")
            value = _convert(section, key, raw)
            if key == "metric_mode":
                try:
                    value = WeightMode(value)
                except ValueError:
                    raise UsageError(
                        f"config value metric_mode: must be one of "
                        f"{[m.value for m in WeightMode]}, got {value!r}"
                    ) from None
            setattr(config, key, value)
    return validate(config)
