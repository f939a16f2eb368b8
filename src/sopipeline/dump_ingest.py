"""Streaming ingestion of StackOverflow data-dump XML.

Dump files are a single ``<rows>`` element wrapping millions of ``<row .../>``
elements, one attribute set per record. Files routinely exceed memory, so
parsing is incremental (expat) and yields one attribute dict per row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO, Iterator, Optional
from xml.parsers import expat

from .errors import DumpParseError, RowError

_CHUNK_SIZE = 1 << 16

TABLE_POSTS = "posts"
TABLE_COMMENTS = "comments"
TABLE_HISTORY = "posthistory"


# Dump type ids: PostTypeId of a question and an answer, PostHistoryTypeId
# of a body edit.
POST_QUESTION = 1
POST_ANSWER = 2
HISTORY_EDIT_BODY = 5


# Record dates hold parse_timestamp's canonical string: string order is time order.
@dataclass
class PostRecord:
    id: int
    post_type_id: int
    body: str
    creation_date: str
    parent_id: Optional[int] = None
    accepted_answer_id: Optional[int] = None
    score: int = 0
    title: Optional[str] = None
    tags: Optional[list[str]] = None
    last_edit_date: Optional[str] = None


@dataclass
class CommentRecord:
    id: int
    post_id: int
    text: str
    creation_date: str
    score: int = 0


@dataclass
class PostHistoryRecord:
    id: int
    post_id: int
    history_type_id: int
    text: str
    creation_date: str


@dataclass
class _RowCollector:
    """Expat handler state: buffers finished rows, tracks byte offsets."""

    parser: expat.XMLParserType
    rows: list[dict] = field(default_factory=list)
    last_row_end: int = 0

    def start(self, name: str, attrs: dict) -> None:
        if name == "row":
            self.rows.append(attrs)

    def end(self, name: str) -> None:
        if name == "row":
            # CurrentByteIndex points at the event that closed the row.
            self.last_row_end = self.parser.CurrentByteIndex


def stream_rows(source: BinaryIO, table: str | None = None) -> Iterator[dict]:
    """Yield one attribute dict per ``row`` element, in document order.

    Memory use is bounded by the largest single row: expat parses
    incrementally and rows are handed out as soon as they close. XML
    entities in attribute values arrive already decoded. On malformed or
    truncated input, raises :class:`DumpParseError` carrying the byte
    offset where the last complete row ended.

    ``table`` is informational only (error messages); row attributes are
    passed through untouched, unknown ones included.
    """
    parser = expat.ParserCreate()
    collector = _RowCollector(parser)
    parser.StartElementHandler = collector.start
    parser.EndElementHandler = collector.end
    parser.buffer_text = True

    label = table or "dump"
    while True:
        chunk = source.read(_CHUNK_SIZE)
        error = None
        try:
            parser.Parse(chunk, not chunk)
        except expat.ExpatError as exc:
            # ByteIndex values are cumulative across feeds.
            error = DumpParseError(
                f"malformed {label} XML: {expat.errors.messages[exc.code]}",
                byte_offset=parser.ErrorByteIndex,
                last_row_offset=collector.last_row_end,
            )
            error.__cause__ = exc
        # Hand out rows completed before any error in this chunk.
        yield from collector.rows
        collector.rows.clear()
        if error is not None:
            raise error
        if not chunk:
            break


_TAG_RE = re.compile(r"<([^<>]+)>")


# The dump's and the store's form, millisecond fraction and no offset.
_CANONICAL_TS = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}", re.ASCII)


def parse_timestamp(value: str, *, row_id=None) -> str:
    """A dump timestamp in the store's canonical form: UTC (a naive value
    is UTC), millisecond precision, ``YYYY-MM-DDTHH:MM:SS.fff``.

    Every value is validated; one already in that form is returned as it is.
    """
    try:
        ts = datetime.fromisoformat(value)
        if _CANONICAL_TS.fullmatch(value):
            return value
        return format_timestamp(ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc))
    except (ValueError, OverflowError) as exc:
        raise RowError(f"bad timestamp {value!r}", row_id=row_id) from exc


def format_timestamp(ts: datetime) -> str:
    """Fixed-width UTC form whose lexicographic order matches time order;
    a naive ``datetime`` is local time."""
    ts = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03d" % (
        ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second, ts.microsecond // 1000
    )


def _require(attrs: dict, key: str, row_id=None) -> str:
    if key not in attrs:
        raise RowError(f"missing required attribute {key!r}", row_id=row_id)
    return attrs[key]


def _parse_int(value: str, key: str, row_id=None) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise RowError(f"attribute {key!r} is not an integer: {value!r}", row_id=row_id) from exc


def parse_tags(raw: str) -> list[str]:
    """Split a dump tag string. Old dumps use ``<a><b>``, newer ``|a|b|``."""
    tags = _TAG_RE.findall(raw)
    if not tags and raw:
        tags = [t for t in raw.split("|") if t]
    return tags


def parse_post(attrs: dict) -> PostRecord:
    """Build a PostRecord from a Posts row, raising RowError on bad rows."""
    row_id = attrs.get("Id")
    post_id = _parse_int(_require(attrs, "Id", row_id), "Id", row_id)
    type_id = _parse_int(_require(attrs, "PostTypeId", post_id), "PostTypeId", post_id)
    body = _require(attrs, "Body", post_id)
    created = parse_timestamp(_require(attrs, "CreationDate", post_id), row_id=post_id)

    parent_id = None
    if "ParentId" in attrs:
        parent_id = _parse_int(attrs["ParentId"], "ParentId", post_id)
    if type_id == POST_ANSWER and parent_id is None:
        raise RowError("answer without ParentId", row_id=post_id)

    return PostRecord(
        id=post_id,
        post_type_id=type_id,
        body=body,
        creation_date=created,
        parent_id=parent_id if type_id == POST_ANSWER else None,
        accepted_answer_id=(
            _parse_int(attrs["AcceptedAnswerId"], "AcceptedAnswerId", post_id)
            if "AcceptedAnswerId" in attrs
            else None
        ),
        score=_parse_int(attrs["Score"], "Score", post_id) if "Score" in attrs else 0,
        title=attrs.get("Title"),
        tags=parse_tags(attrs["Tags"]) if "Tags" in attrs else None,
        last_edit_date=(
            parse_timestamp(attrs["LastEditDate"], row_id=post_id) if "LastEditDate" in attrs else None
        ),
    )


def parse_comment(attrs: dict) -> CommentRecord:
    row_id = attrs.get("Id")
    comment_id = _parse_int(_require(attrs, "Id", row_id), "Id", row_id)
    return CommentRecord(
        id=comment_id,
        post_id=_parse_int(_require(attrs, "PostId", comment_id), "PostId", comment_id),
        text=_require(attrs, "Text", comment_id),
        creation_date=parse_timestamp(_require(attrs, "CreationDate", comment_id), row_id=comment_id),
        score=_parse_int(attrs["Score"], "Score", comment_id) if "Score" in attrs else 0,
    )


def parse_history(attrs: dict) -> PostHistoryRecord:
    row_id = attrs.get("Id")
    hist_id = _parse_int(_require(attrs, "Id", row_id), "Id", row_id)
    type_id = _parse_int(_require(attrs, "PostHistoryTypeId", hist_id), "PostHistoryTypeId", hist_id)
    return PostHistoryRecord(
        id=hist_id,
        post_id=_parse_int(_require(attrs, "PostId", hist_id), "PostId", hist_id),
        history_type_id=type_id,
        # Non-body history kinds (title edits, closures) may omit Text.
        text=attrs.get("Text", ""),
        creation_date=parse_timestamp(_require(attrs, "CreationDate", hist_id), row_id=hist_id),
    )
