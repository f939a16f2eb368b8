"""Declarative pipeline configuration.

Line-oriented ``key = value`` file with ``[section]`` headers (INI syntax).
Each :class:`PipelineConfig` field is one key: its metadata names the key's
section, and its annotation and default give the value's type and default.
Unknown sections or keys are rejected by name, as are out-of-bounds values;
command-line flags override file values, their text read as a file value
is (:func:`convert`). All randomness derives from the single ``[run] seed``.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .bpe import MIN_VOCAB_SIZE
from .corpus import DEFAULT_BUCKET_EDGES, DEFAULT_MIN_COMMENTS, DEFAULT_MIN_SCORE
from .errors import UsageError
from .linefiles import parse_int
from .metrics import WeightMode
from .mining import (
    DEFAULT_LATE_MIN_SCORE,
    DEFAULT_LATE_YEARS,
    DEFAULT_LEVENSHTEIN_MIN,
    MAX_LATE_YEARS,
    OBSOLETION_KEYWORDS,
)

ENV_CONFIG_PATH = "SOPIPELINE_CONFIG"


def _key(section: str, default=None, at_least=None):
    """A field read from ``[section]`` of the config file; its annotation
    gives the value's type, and ``at_least`` its lower bound, if any."""
    return field(default=default, metadata={"section": section, "at_least": at_least})


@dataclass
class PipelineConfig:
    seed: int = _key("run", 0, at_least=0)
    posts: Optional[str] = _key("paths")
    comments: Optional[str] = _key("paths")
    posthistory: Optional[str] = _key("paths")
    store_dir: Optional[str] = _key("paths")
    corpus: Optional[str] = _key("paths")
    vocab: Optional[str] = _key("paths")
    shards: Optional[str] = _key("paths")
    checkpoint: Optional[str] = _key("paths")
    min_score: int = _key("filter", DEFAULT_MIN_SCORE, at_least=0)
    min_comments: int = _key("filter", DEFAULT_MIN_COMMENTS, at_least=1)
    replace_urls: bool = _key("cleaning", True)
    replace_emails: bool = _key("cleaning", True)
    vocab_size: int = _key("tokenizer", 50_000, at_least=MIN_VOCAB_SIZE)
    sample_fraction: float = _key("tokenizer", 0.10)
    isolate_digits: bool = _key("tokenizer", False)
    max_len: int = _key("sequence", 2048, at_least=1)
    bucket_edges: tuple[int, ...] = _key("sequence", DEFAULT_BUCKET_EDGES)
    target_tokens: int = _key("batch", 500_000, at_least=1)
    micro_batch: int = _key("batch", 8, at_least=1)
    lr: float = _key("batch", 0.01, at_least=0)
    steps: int = _key("batch", 100, at_least=0)
    levenshtein_min: int = _key("miner", DEFAULT_LEVENSHTEIN_MIN, at_least=0)
    late_years: float = _key("miner", DEFAULT_LATE_YEARS)
    late_min_score: int = _key("miner", DEFAULT_LATE_MIN_SCORE, at_least=0)
    keywords: tuple[str, ...] = _key("miner", OBSOLETION_KEYWORDS)
    metric_mode: WeightMode = _key("metrics", WeightMode.INVERSE_FREQUENCY)


_SECTION = {f.name: f.metadata["section"] for f in fields(PipelineConfig)}
_AT_LEAST = {f.name: f.metadata["at_least"] for f in fields(PipelineConfig) if f.metadata["at_least"] is not None}
_TYPES = get_type_hints(PipelineConfig)
_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}
_NUMBER = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")  # no "+", "_", space, nan or inf


def integer(text: str) -> int:
    """``text`` as an integer if it is ASCII ``-?[0-9]+`` (:func:`parse_int`), else ValueError."""
    if (value := parse_int(text)) is None:
        raise ValueError(f"not an integer: {text!r}")
    return value


def number(text: str) -> float:
    """``text`` as a finite float if it is ASCII ``-?`` digits, point and exponent, else ValueError."""
    if not _NUMBER.fullmatch(text) or not math.isfinite(value := float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse(kind, text: str):
    """``text`` as a value of type ``kind``; KeyError or ValueError if it is not one."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[str]
        return _parse(args[0], text)
    if origin is tuple:  # tuple[int, ...] and tuple[str, ...]: comma-separated
        return tuple(_parse(args[0], x.strip()) for x in text.split(",") if x.strip())
    if kind is bool:
        return _BOOLS[text.lower()]
    return {int: integer, float: number}.get(kind, kind)(text)  # or str, or an Enum by value


def convert(key: str, text: str, where: str):
    """``text`` as ``key``'s value, or a UsageError naming ``where`` it came from: a file key or a flag."""
    kind = _TYPES[key]
    try:
        return _parse(kind, text)
    except (KeyError, ValueError):
        if isinstance(kind, type) and issubclass(kind, Enum):
            raise UsageError(f"{where}: must be one of {[m.value for m in kind]}, got {text!r}") from None
        name = kind.__name__ if isinstance(kind, type) else kind
        raise UsageError(f"{where}: cannot parse {text!r} as {name}") from None


def validate(config: PipelineConfig) -> PipelineConfig:
    def check(cond: bool, key: str, message: str) -> None:
        if not cond:
            raise UsageError(f"config value {key}: {message}")

    for key, bound in _AT_LEAST.items():
        value = getattr(config, key)
        check(value >= bound, key, f"must be at least {bound}, got {value}")
    check(0 < config.sample_fraction <= 1, "sample_fraction", "must lie in (0, 1]")
    check(len(config.bucket_edges) >= 1, "bucket_edges", "must list at least one edge")
    check(
        all(a < b for a, b in zip(config.bucket_edges, config.bucket_edges[1:]))
        and config.bucket_edges[0] > 0,
        "bucket_edges",
        "must be strictly increasing positive integers",
    )
    check(0 < config.late_years <= MAX_LATE_YEARS, "late_years", f"must lie in (0, {MAX_LATE_YEARS}]")
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
        if section not in _SECTION.values():
            raise UsageError(f"config: unknown section [{section}]")
        for key, raw in parser.items(section):
            if _SECTION.get(key) != section:
                raise UsageError(f"config: unknown key {key!r} in section [{section}]")
            setattr(config, key, convert(key, raw, f"config [{section}] {key}"))
    return validate(config)
