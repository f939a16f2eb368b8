"""Streaming XML ingestion and row parsing."""

import calendar
import io
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import comment_row, rows_xml, ts
from sopipeline.dump_ingest import (
    HISTORY_EDIT_BODY,
    POST_ANSWER,
    POST_QUESTION,
    format_timestamp,
    parse_comment,
    parse_history,
    parse_post,
    parse_tags,
    parse_timestamp,
    stream_rows,
)
from sopipeline.errors import DumpParseError, RowError


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
        assert rec.tags == ["python", "pandas"]
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


class TestParseTags:
    def test_angle_bracket_format(self):
        assert parse_tags("<a><b-c><d.e>") == ["a", "b-c", "d.e"]

    def test_pipe_format(self):
        assert parse_tags("|python|pandas|") == ["python", "pandas"]

    def test_empty(self):
        assert parse_tags("") == []


class TestParseCommentAndHistory:
    def test_comment(self):
        rec = parse_comment(comment_row(1, 7, "deprecated since v2", created=ts(3)))
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
