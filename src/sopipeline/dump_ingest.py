"""Streaming ingestion of StackOverflow data-dump XML.

Dump files are a single ``<rows>`` element wrapping millions of ``<row .../>``
elements, one attribute set per record. Files routinely exceed memory, so
parsing is incremental (expat) and yields one attribute dict per row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO, Iterator, NamedTuple, Optional
from xml.parsers import expat

from .errors import DumpParseError, RowError
from .linefiles import parse_int

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
# Each record is a row of its record_store table, whose columns are the fields
# in order: reordering fields changes the store format.
class PostRecord(NamedTuple):
    id: int
    post_type_id: int
    body: str
    creation_date: str
    parent_id: Optional[int] = None
    accepted_answer_id: Optional[int] = None
    score: int = 0
    title: Optional[str] = None
    tags: Optional[str] = None  # the dump's Tags as given: <a><b> or |a|b|
    last_edit_date: Optional[str] = None


class CommentRecord(NamedTuple):
    id: int
    post_id: int
    text: str
    creation_date: str
    score: int = 0


class PostHistoryRecord(NamedTuple):
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


# The accepted forms (docs/FORMATS.md), which fromisoformat reads alike on every
# Python, and the dump's and store's own form among them.
_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\d[T ]\d\d:\d\d:\d\d(?:\.\d{3}|\.\d{6})?(?:[+-]\d\d:\d\d)?", re.ASCII)
_CANONICAL_TS = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}", re.ASCII)


def parse_timestamp(value: str, *, row_id=None) -> str:
    """A dump timestamp in the store's canonical form: UTC (a naive value
    is UTC), millisecond precision, ``YYYY-MM-DDTHH:MM:SS.fff``. A value
    outside the grammar in docs/FORMATS.md, or naming no real time, is refused.
    """
    if (canonical := _timestamp(value)) is None:
        raise RowError(f"bad timestamp {value!r}", row_id=row_id)
    return canonical


def _timestamp(value: str) -> Optional[str]:
    """:func:`parse_timestamp`'s value, or None for a refused one."""
    try:
        if _CANONICAL_TS.fullmatch(value):
            datetime.fromisoformat(value)  # refuses 30 February
            return value
        if _TIMESTAMP.fullmatch(value):
            ts = datetime.fromisoformat(value)
            return format_timestamp(ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc))
    except (ValueError, OverflowError):
        pass
    return None


def format_timestamp(ts: datetime) -> str:
    """Fixed-width UTC form whose lexicographic order matches time order;
    a naive ``datetime`` is local time."""
    ts = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03d" % (
        ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second, ts.microsecond // 1000
    )


REQUIRED = object()  # an attribute's value when absent: the row is refused

# One (attribute, reader, value when absent) per record field after ``id``, in
# field order; ``Id`` is a required integer in every table. A reader returns
# None for a value it refuses.
POST_ATTRIBUTES = (
    ("PostTypeId", parse_int, REQUIRED),
    ("Body", str, REQUIRED),
    ("CreationDate", _timestamp, REQUIRED),
    ("ParentId", parse_int, None),
    ("AcceptedAnswerId", parse_int, None),
    ("Score", parse_int, 0),
    ("Title", str, None),
    ("Tags", str, None),
    ("LastEditDate", _timestamp, None),
)
COMMENT_ATTRIBUTES = (
    ("PostId", parse_int, REQUIRED),
    ("Text", str, REQUIRED),
    ("CreationDate", _timestamp, REQUIRED),
    ("Score", parse_int, 0),
)
HISTORY_ATTRIBUTES = (
    ("PostId", parse_int, REQUIRED),
    ("PostHistoryTypeId", parse_int, REQUIRED),
    ("Text", str, ""),  # non-body kinds (title edits, closures) may omit it
    ("CreationDate", _timestamp, REQUIRED),
)


def _parse_row(attrs: dict, record: type, attributes: tuple):
    """``record`` built from one row by its attribute table, or RowError
    naming the row: by its id, or by the raw ``Id`` until that is read."""
    if "Id" not in attrs:
        raise RowError("missing required attribute 'Id'")
    if (row_id := parse_int(attrs["Id"])) is None:
        raise RowError(f"bad value for 'Id': {attrs['Id']!r}", row_id=attrs["Id"])
    values = [row_id]
    for key, read, absent in attributes:
        value = attrs.get(key, absent)
        if value is REQUIRED:
            raise RowError(f"missing required attribute {key!r}", row_id=row_id)
        if value is not absent and (value := read(raw := value)) is None:
            raise RowError(f"bad value for {key!r}: {raw!r}", row_id=row_id)
        values.append(value)
    return tuple.__new__(record, values)  # record._make(values), less its length check, per row


def parse_post(attrs: dict) -> PostRecord:
    """Build a PostRecord from a Posts row, raising RowError on bad rows. An
    answer must have a ParentId, and only an answer keeps it."""
    post = _parse_row(attrs, PostRecord, POST_ATTRIBUTES)
    if post.post_type_id == POST_ANSWER:
        if post.parent_id is None:
            raise RowError("answer without ParentId", row_id=post.id)
    elif post.parent_id is not None:
        post = post._replace(parent_id=None)
    return post


def parse_comment(attrs: dict) -> CommentRecord:
    return _parse_row(attrs, CommentRecord, COMMENT_ATTRIBUTES)


def parse_history(attrs: dict) -> PostHistoryRecord:
    return _parse_row(attrs, PostHistoryRecord, HISTORY_ATTRIBUTES)
