"""Edit events and the JSONL edit-log round trip."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import (
    AddEdge,
    EditLogError,
    RemoveEdge,
    SetScalar,
    iter_edit_log,
    read_edit_log,
    write_edit_log,
)
from repro.stream.editlog import edit_from_obj, edit_to_obj


class TestObjRoundTrip:
    @pytest.mark.parametrize(
        "edit",
        [SetScalar(3, 2.5), AddEdge(1, 2), RemoveEdge(0, 4)],
    )
    def test_round_trip(self, edit):
        assert edit_from_obj(edit_to_obj(edit)) == edit

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            edit_from_obj({"op": "frobnicate"})

    def test_missing_field(self):
        with pytest.raises(ValueError, match="malformed"):
            edit_from_obj({"op": "set", "v": 1})

    def test_null_field(self):
        with pytest.raises(ValueError, match="malformed"):
            edit_from_obj({"op": "add", "u": 0, "v": None})

    def test_non_object_record(self):
        with pytest.raises(ValueError, match="JSON object"):
            list(iter_edit_log(["[1, 2]"]))

    def test_not_an_edit(self):
        with pytest.raises(TypeError):
            edit_to_obj("nope")


class TestLogRoundTrip:
    def test_file_round_trip(self, tmp_path):
        batches = [
            [SetScalar(0, 1.0), AddEdge(0, 1)],
            [RemoveEdge(0, 1)],
            [],
        ]
        path = write_edit_log(tmp_path / "log.jsonl", batches)
        out = read_edit_log(path)
        assert [b for _, b in out] == batches
        assert [t for t, _ in out] == [None, None, None]

    def test_timestamps(self, tmp_path):
        path = write_edit_log(
            tmp_path / "log.jsonl",
            [[AddEdge(0, 1)], [AddEdge(1, 2)]],
            times=[0.5, 2.0],
        )
        assert [t for t, _ in read_edit_log(path)] == [0.5, 2.0]

    def test_trailing_edits_form_final_batch(self):
        text = '{"op": "add", "u": 0, "v": 1}\n{"op": "commit"}\n' \
               '{"op": "set", "v": 2, "value": 3.0}\n'
        out = read_edit_log(io.StringIO(text))
        assert out == [
            (None, [AddEdge(0, 1)]),
            (None, [SetScalar(2, 3.0)]),
        ]

    def test_comments_and_blanks_skipped(self):
        text = "# recorded stream\n\n" \
               '{"op": "add", "u": 0, "v": 1}\n{"op": "commit", "t": 1}\n'
        out = list(iter_edit_log(text.splitlines()))
        assert out == [(1.0, [AddEdge(0, 1)])]


#: JSON-valued fields, 1e400 included (it parses as infinity).
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 10**30),
    st.floats(allow_nan=False), st.just(1e400), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)
_RECORDS = st.fixed_dictionaries(
    {
        "op": st.sampled_from(["set", "add", "remove", "commit", "x"]),
        "v": _VALUES,
    },
    optional={k: _VALUES for k in ("u", "value", "t")},
).map(json.dumps)
#: Records, records cut in half and free text.
_LINES = st.lists(
    st.one_of(
        _RECORDS, _RECORDS.map(lambda r: r[: len(r) // 2]),
        st.text(max_size=12),
    ),
    max_size=8,
)


class TestMalformedLines:
    """Every malformed line raises :class:`EditLogError` with its 1-based
    number in the file, comments and blank lines included."""

    def test_bad_json_names_its_line(self):
        lines = [
            '{"op": "add", "u": 0, "v": 1}', "# note",
            '{"op": "set", "v": 1 "value": 2}',
        ]
        with pytest.raises(EditLogError) as exc:
            list(iter_edit_log(lines))
        assert exc.value.line_no == 3
        assert str(exc.value) == "line 3: Expecting ',' delimiter at column 22"

    @pytest.mark.parametrize("record, reason", [
        ('{"op": "explode"}', "unknown edit op 'explode'"),
        ('{"op": "commit", "t": "soon"}', "could not convert string"),
        ('{"op": "set", "v": 1e400, "value": 1}', "infinity"),
        ("[1, 2]", "must be a JSON object"),
    ])
    def test_bad_record_names_its_line(self, record, reason):
        with pytest.raises(EditLogError, match=reason) as exc:
            list(iter_edit_log(["", record]))
        assert exc.value.line_no == 2

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"op": "add", "u": 0, "v": 1}\n{"op": "commit"}\n'
            b'{"op": "set", "v": 1, "value": \xff}\n'
        )
        with pytest.raises(EditLogError) as exc:
            read_edit_log(path)
        assert exc.value.line_no == 3

    @settings(max_examples=60, deadline=None)
    @given(lines=_LINES)
    def test_fuzz_yields_batches_or_names_a_line(self, lines):
        try:
            batches = list(iter_edit_log(lines))
        except EditLogError as exc:
            assert 1 <= exc.line_no <= len(lines)
            assert lines[exc.line_no - 1].strip()
        else:
            assert all(isinstance(batch, list) for _, batch in batches)
