"""Streaming XML ingestion and row parsing."""

import calendar
import io
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import as_dump_row, comment_row, rows_xml, ts
from sopipeline import dump_ingest
from sopipeline.dump_ingest import (
    COMMENT_ATTRIBUTES,
    HISTORY_ATTRIBUTES,
    HISTORY_EDIT_BODY,
    POST_ANSWER,
    POST_ATTRIBUTES,
    POST_QUESTION,
    REQUIRED,
    format_timestamp,
    parse_comment,
    parse_history,
    parse_post,
    parse_timestamp,
    stream_rows,
)
from sopipeline.errors import DumpParseError, RowError
from sopipeline.linefiles import parse_int


class TestStreamRows:
    def test_yields_rows_in_order(self):
        xml = rows_xml([{"Id": 1}, {"Id": 2}, {"Id": 3}])
        rows = list(stream_rows(io.BytesIO(xml), "posts"))
        assert [r["Id"] for r in rows] == ["1", "2", "3"]

    def test_entities_decoded(self):
        xml = b'<rows><row Id="1" Body="&lt;p&gt;hi&lt;/p&gt;" /></rows>'
        rows = list(stream_rows(io.BytesIO(xml)))
        assert rows[0]["Body"] == "<p>hi</p>"

    def test_unknown_attributes_retained(self):
        xml = b'<rows><row Id="1" FancyNewField="yes" /></rows>'
        (row,) = stream_rows(io.BytesIO(xml))
        assert row["FancyNewField"] == "yes"

    def test_truncated_file_reports_last_complete_row(self):
        full = rows_xml([{"Id": 1}, {"Id": 2}, {"Id": 3}])
        # cut inside the third row element
        cut = full.index(b'<row Id="3"') + 5
        truncated = full[:cut]
        got = []
        with pytest.raises(DumpParseError) as exc_info:
            for row in stream_rows(io.BytesIO(truncated)):
                got.append(row["Id"])
        assert got == ["1", "2"]
        err = exc_info.value
        # offset points at the token that closed row 2, before the cut
        end_of_row_2 = full.index(b'<row Id="3"')
        assert 0 < err.last_row_offset <= end_of_row_2
        assert err.last_row_offset >= full.index(b'<row Id="2"')

    def test_malformed_xml_raises(self):
        with pytest.raises(DumpParseError):
            list(stream_rows(io.BytesIO(b"<rows><row Id='1' </rows>")))

    def test_streaming_memory_bounded(self, tmp_path):
        # ~40 MB file must stream with a small Python-heap footprint
        path = tmp_path / "big.xml"
        body = "x" * 400
        with open(path, "wb") as fh:
            fh.write(b"<rows>\n")
            for i in range(80_000):
                fh.write(f'  <row Id="{i}" Body="{body}" />\n'.encode())
            fh.write(b"</rows>\n")
        size = path.stat().st_size
        assert size > 30 * 1024 * 1024

        tracemalloc.start()
        n = 0
        with open(path, "rb") as fh:
            for _ in stream_rows(fh):
                n += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert n == 80_000
        assert peak < 8 * 1024 * 1024, f"peak python heap {peak} bytes for a {size}-byte file"

    @pytest.mark.bigmem
    def test_streaming_one_gigabyte(self, tmp_path):
        path = tmp_path / "huge.xml"
        body = "y" * 4000
        with open(path, "wb") as fh:
            fh.write(b"<rows>\n")
            for i in range(270_000):
                fh.write(f'  <row Id="{i}" Body="{body}" />\n'.encode())
            fh.write(b"</rows>\n")
        assert path.stat().st_size > 1024**3
        tracemalloc.start()
        with open(path, "rb") as fh:
            n = sum(1 for _ in stream_rows(fh))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert n == 270_000
        assert peak < 16 * 1024 * 1024


class TestParsePost:
    def test_answer_field_mapping(self):
        rec = parse_post(
            {
                "Id": "7",
                "PostTypeId": "2",
                "ParentId": "3",
                "Score": "5",
                "Body": "<p>b</p>",
                "CreationDate": ts(1),
            }
        )
        assert rec.id == 7
        assert rec.post_type_id == POST_ANSWER
        assert rec.parent_id == 3
        assert rec.score == 5
        assert rec.creation_date == "2019-06-02T12:00:00.000"

    def test_question_with_tags(self):
        rec = parse_post(
            {
                "Id": "3",
                "PostTypeId": "1",
                "Title": "T",
                "Tags": "<python><pandas>",
                "Body": "<p>q</p>",
                "CreationDate": ts(0),
            }
        )
        assert rec.post_type_id == POST_QUESTION
        assert rec.tags == "<python><pandas>"
        assert rec.parent_id is None

    def test_missing_body_is_row_error(self):
        with pytest.raises(RowError):
            parse_post({"Id": "9", "PostTypeId": "2", "ParentId": "1", "CreationDate": ts(0)})

    def test_missing_required_attribute(self):
        with pytest.raises(RowError):
            parse_post({"Id": "9", "Body": "x", "CreationDate": ts(0)})

    def test_bad_integer(self):
        with pytest.raises(RowError):
            parse_post(
                {"Id": "x9", "PostTypeId": "2", "ParentId": "1", "Body": "b", "CreationDate": ts(0)}
            )

    def test_answer_without_parent_is_error(self):
        with pytest.raises(RowError):
            parse_post({"Id": "9", "PostTypeId": "2", "Body": "b", "CreationDate": ts(0)})

    def test_other_post_type_kept(self):
        rec = parse_post({"Id": "5", "PostTypeId": "6", "Body": "b", "CreationDate": ts(0)})
        assert rec.post_type_id == 6

    def test_timestamp_ordering_invariant(self):
        rec = parse_post(
            {
                "Id": "1",
                "PostTypeId": "1",
                "Body": "b",
                "CreationDate": ts(0),
                "LastEditDate": ts(4),
            }
        )
        assert rec.creation_date <= rec.last_edit_date


class TestParseCommentAndHistory:
    def test_comment(self):
        rec = parse_comment(as_dump_row(comment_row(1, 7, "deprecated since v2", created=ts(3))))
        assert rec.id == 1 and rec.post_id == 7
        assert rec.text == "deprecated since v2"
        assert rec.creation_date == "2019-06-04T12:00:00.000"

    def test_history_edit_body(self):
        rec = parse_history({"Id": "2", "PostId": "7", "PostHistoryTypeId": "5", "Text": "new", "CreationDate": ts(1)})
        assert rec.history_type_id == HISTORY_EDIT_BODY

    def test_history_initial_body(self):
        rec = parse_history({"Id": "2", "PostId": "7", "PostHistoryTypeId": "2", "Text": "v0", "CreationDate": ts(1)})
        assert rec.history_type_id == 2

    def test_history_other_kind_retained(self):
        rec = parse_history({"Id": "2", "PostId": "7", "PostHistoryTypeId": "4", "Text": "t", "CreationDate": ts(1)})
        assert rec.history_type_id == 4

    def test_comment_missing_text(self):
        with pytest.raises(RowError):
            parse_comment({"Id": "1", "PostId": "7", "CreationDate": ts(0)})


# A valid value per reader of the attribute tables; an integer of 2 makes a post an answer.
_VALID = {parse_int: "2", str: "s", dump_ingest._timestamp: "2019-06-01T12:00:00.000"}


@pytest.mark.parametrize(
    "parse, attributes",
    [(parse_post, POST_ATTRIBUTES), (parse_comment, COMMENT_ATTRIBUTES), (parse_history, HISTORY_ATTRIBUTES)],
    ids=["posts", "comments", "history"],
)
def test_attribute_table_refusals_name_row_and_attribute(parse, attributes):
    """Each table's required attributes, dropped, and its integers, as ``1_0``,
    refuse the row by a RowError that names the row and the attribute."""
    row = {"Id": "9", **{key: _VALID[read] for key, read, _ in attributes}}
    record = parse(row)
    assert record.id == 9 and len(record) == len(record._fields) == 1 + len(attributes)
    faults = [(key, None) for key, _, absent in attributes if absent is REQUIRED]
    faults += [(key, "1_0") for key, read, _ in attributes if read is parse_int]
    for key, value in faults:
        bad = {k: v for k, v in row.items() if k != key} if value is None else {**row, key: value}
        with pytest.raises(RowError, match=f"row 9: .*'{key}'") as exc_info:
            parse(bad)
        assert exc_info.value.row_id == 9
    with pytest.raises(RowError, match="'Id'") as exc_info:
        parse({k: v for k, v in row.items() if k != "Id"})
    assert exc_info.value.row_id is None
    with pytest.raises(RowError, match="row 1_0: .*'Id'"):
        parse({**row, "Id": "1_0"})


# Dump values and what the stated grammar (docs/FORMATS.md, "Dump rows") makes
# of them, None for a refused one: the same on every supported Python.
INTEGER_VALUES = [
    ("12", 12), ("-4", -4), ("0", 0), ("007", 7),
    ("1_0", None), (" 7 ", None), ("+3", None), ("\u0661\u0662", None), ("", None), ("-", None),
    ("--1", None), ("1.0", None), ("\u00b2", None), ("7\n", None),
]
TIMESTAMP_VALUES = [
    ("2019-06-01T12:00:00.123", "2019-06-01T12:00:00.123"),
    ("2019-06-01T12:00:00", "2019-06-01T12:00:00.000"),
    ("2019-06-01 12:00:00.123", "2019-06-01T12:00:00.123"),
    ("2019-06-01T12:00:00.123999", "2019-06-01T12:00:00.123"),
    ("2019-06-01T12:00:00+02:00", "2019-06-01T10:00:00.000"),
    ("2019-06-01 12:00:00.123-01:30", "2019-06-01T13:30:00.123"),
    ("2019-06-01T12:00:00.123456+00:00", "2019-06-01T12:00:00.123"),
    ("2020-02-29T00:00:00.000", "2020-02-29T00:00:00.000"),
    ("2008-07-31T21:42:52Z", None),  # a Z offset
    ("2008-07-31T21:42:52.123Z", None),
    ("20080731T214252", None),  # ISO basic form
    ("2008-07-31", None),  # a date only
    ("2008-07-31T21:42", None),  # no seconds
    ("2008-07-31T21:42:52.1", None),  # 1-, 2-, 4- and 9-digit fractions
    ("2008-07-31T21:42:52.12", None),
    ("2008-07-31T21:42:52.1234", None),
    ("2008-07-31T21:42:52.123456789", None),
    ("2008-07-31T21:42:52+02", None),  # offsets other than +HH:MM
    ("2008-07-31T21:42:52+0200", None),
    ("2008-07-31T21:42:52+02:00:00", None),
    ("2008-07-31X21:42:52", None),  # a separator other than T or space
    ("2008-07-31t21:42:52", None),
    ("2008-07-31T21:42:52.123 ", None),
    ("\u0662008-07-31T21:42:52", None),  # a non-ASCII digit
    ("2019-02-30T00:00:00.000", None),  # no such day
    ("2019-06-01T24:00:00", None),
    ("2019-06-01T12:00:00+24:00", None),
]


@pytest.mark.parametrize("text, want", INTEGER_VALUES)
def test_integer_grammar(text, want):
    assert parse_int(text) == want
    row = {"Id": "1", "PostId": text, "Text": "t", "CreationDate": ts(0)}
    if want is None:
        with pytest.raises(RowError, match="bad value for 'PostId'"):
            parse_comment(row)
    else:
        assert parse_comment(row).post_id == want


@pytest.mark.parametrize("value, want", TIMESTAMP_VALUES)
def test_timestamp_grammar(value, want):
    if want is None:
        with pytest.raises(RowError, match="bad timestamp"):
            parse_timestamp(value)
    else:
        assert parse_timestamp(value) == want


def slow_parse_timestamp(value: str) -> datetime:
    """The general path, kept as the oracle for the canonical-form fast path."""
    ts = datetime.fromisoformat(value)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=ts.microsecond // 1000 * 1000)


def slow_format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.") + f"{ts.microsecond // 1000:03d}"


@pytest.fixture
def local_tz_east_of_utc(monkeypatch):
    """Local time three hours east of UTC, so naive datetimes are not UTC."""
    monkeypatch.setenv("TZ", "XYZ-03")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestTimestamps:
    def _canonical(self, rng, n):
        out = [
            "1000-01-01T00:00:00.000",
            "9999-12-31T23:59:59.999",
            "2000-02-29T12:00:00.000",
            "2024-02-29T23:59:59.999",
            "1600-02-29T00:00:00.500",
        ]
        for _ in range(n):
            year = int(rng.integers(1000, 10000))
            month = int(rng.integers(1, 13))
            day = int(rng.integers(1, calendar.monthrange(year, month)[1] + 1))
            hms = (int(rng.integers(0, 24)), int(rng.integers(0, 60)), int(rng.integers(0, 60)))
            ms = int(rng.choice([0, 999, int(rng.integers(0, 1000))]))
            out.append(f"{year:04d}-{month:02d}-{day:02d}T{hms[0]:02d}:{hms[1]:02d}:{hms[2]:02d}.{ms:03d}")
        return out

    def test_canonical_form_matches_slow_path(self):
        for s in self._canonical(np.random.default_rng(17), 3000):
            want = slow_parse_timestamp(s)
            assert want.tzinfo is timezone.utc, s
            assert parse_timestamp(s) == slow_format_timestamp(want) == format_timestamp(want) == s

    @pytest.mark.parametrize(
        "value",
        [
            "2019-06-01T12:00:00",  # no fraction
            "2019-06-01T12:00:00.123456",  # microseconds, truncated to ms
            "2019-06-01T12:00:00.123+02:00",  # an offset, moved to UTC
            "2019-06-01 12:00:00.123",  # space separator
        ],
    )
    def test_other_forms_take_the_general_path(self, value, local_tz_east_of_utc):
        assert parse_timestamp(value) == slow_format_timestamp(slow_parse_timestamp(value))

    def test_format_converts_other_zones_and_naive_local_time(self, local_tz_east_of_utc):
        values = [
            datetime(2019, 6, 1, 12, 0, 0, 123456),  # naive: local time
            datetime(2019, 6, 1, 1, 30, tzinfo=timezone(timedelta(hours=2))),
            datetime(2019, 6, 1, 12, 0, 0, 999999, tzinfo=timezone(timedelta(0))),
        ]
        for ts in values:
            assert format_timestamp(ts) == slow_format_timestamp(ts), ts
        assert format_timestamp(values[0]) == "2019-06-01T09:00:00.123"
        # strftime's %Y does not zero-pad a three-digit year; the store's form does
        three_digit_year = datetime(999, 12, 31, 23, 0, tzinfo=timezone.utc)
        assert format_timestamp(three_digit_year) == "0999-12-31T23:00:00.000"
        assert parse_timestamp("0999-12-31T23:00:00.000") == "0999-12-31T23:00:00.000"
        assert parse_timestamp("0999-12-31T23:00:00") == "0999-12-31T23:00:00.000"

    def test_impossible_canonical_date_names_the_row(self):
        with pytest.raises(RowError) as exc_info:
            parse_timestamp("2019-02-30T00:00:00.000", row_id=42)
        assert exc_info.value.row_id == 42
        with pytest.raises(RowError) as exc_info:
            parse_comment({"Id": "7", "PostId": "1", "Text": "t", "CreationDate": "2019-02-30T00:00:00.000"})
        assert exc_info.value.row_id == 7
        with pytest.raises(RowError) as exc_info:
            parse_timestamp("0001-01-01T00:00:00.000+01:00", row_id=5)  # before year 1 in UTC
        assert exc_info.value.row_id == 5
