"""JSONL and TSV, the line files in which stages hand each other work.

A reader skips blank lines and refuses a bad one with its ``path:line``:
in JSONL as a data error (exit 2), in a TSV as a usage error (exit 1).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .atomic import replacing
from .errors import PipelineError, UsageError


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write each row as one JSON line (sorted keys, compact, non-ASCII kept),
    renamed into place after the last; returns the row count."""
    n = 0
    with replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        for n, row in enumerate(rows, start=1):
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n")
    return n


def read_jsonl(path: str | Path, fields: dict[str, type | tuple[type, ...]]) -> Iterator[tuple[int, list]]:
    """(lineno, values) per UTF-8 JSON object line: one value per key of
    ``fields``, of exactly that type or one of those types (``true`` is no
    int). An absent key reads as None."""
    kinds = {name: kind if isinstance(kind, tuple) else (kind,) for name, kind in fields.items()}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError is one too
                raise PipelineError(f"{path}:{lineno}: not a UTF-8 JSON line ({exc})") from None
            if type(obj) is not dict:
                raise PipelineError(f"{path}:{lineno}: expected a JSON object")
            values = [obj.get(name) for name in kinds]
            for (name, allowed), value in zip(kinds.items(), values):
                if type(value) not in allowed:
                    want = " or ".join(kind.__name__ for kind in allowed)
                    fault = f"must be {want}, got {value!r}" if name in obj else "is missing"
                    raise PipelineError(f"{path}:{lineno}: field {name!r} {fault}")
            yield lineno, values


def read_tsv(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(lineno, fields) per data line of a TSV whose first line is ``header``."""

    def split(lineno: int, line: bytes) -> list[str]:
        try:
            return line.decode("utf-8").rstrip("\n").removesuffix("\r").split("\t")
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}:{lineno}: not UTF-8 ({exc})") from None

    with open(path, "rb") as fh:
        if split(1, fh.readline()) != list(header):
            raise UsageError(f"{path}:1: expected header {'<TAB>'.join(header)}")
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                fields = split(lineno, line)
                if len(fields) != len(header):
                    raise UsageError(f"{path}:{lineno}: expected {len(header)} tab-separated fields")
                yield lineno, fields


def parse_int(text: str) -> Optional[int]:
    """``text`` as an integer if it is ASCII ``-?[0-9]+``, else None, in TSV
    fields and dump attributes alike: ``+1``, ``0_1``, `` 2 ``, ``١٢`` are not."""
    if text.isdigit() or (text[:1] == "-" and text[1:].isdigit()):
        return int(text) if text.isascii() else None
    return None


def tsv_int(path: str | Path, lineno: int, name: str, text: str) -> int:
    """The integer field ``name`` of a TSV row, read by :func:`parse_int`."""
    if (value := parse_int(text)) is None:
        raise UsageError(f"{path}:{lineno}: {name} must be an integer, got {text!r}")
    return value
