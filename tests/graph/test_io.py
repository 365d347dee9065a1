"""Unit tests for edge-list and scalar-field I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edges
from repro.graph import io as graph_io
from repro.graph.io import (
    DEFAULT_CHUNK_EDGES,
    EdgeListError,
    TemporalEdgeError,
    iter_edge_chunks,
    iter_temporal_edge_chunks,
    iter_temporal_edges_sorted,
    read_edge_list,
    read_edge_scalars,
    read_vertex_scalars,
    write_edge_list,
    write_edge_scalars,
    write_temporal_edge_list,
    write_vertex_scalars,
)


@pytest.fixture
def small():
    return from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])


class TestIterEdgeChunks:
    def test_chunks_bound_and_concatenate_to_the_file(self, tmp_path):
        path = tmp_path / "g.txt"
        pairs = [(i, i + 1) for i in range(10)] + [(0, 5), (2, 9)]
        path.write_text(
            "# header\n"
            + "\n".join(f"{u} {v}" for u, v in pairs)
            + "\n\n# trailing comment\n"
        )
        chunks = list(iter_edge_chunks(path, chunk_edges=5))
        assert [len(c) for c in chunks] == [5, 5, 2]
        assert np.concatenate(chunks).tolist() == [list(p) for p in pairs]

    def test_matches_read_edge_list(self, small, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(small, path)
        streamed = np.concatenate(list(iter_edge_chunks(path, 2)))
        assert read_edge_list(path) == from_edges(map(tuple, streamed))

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n\n")
        assert list(iter_edge_chunks(path)) == []
        assert read_edge_list(path).n_vertices == 0

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0 1 3.5\n1 2 0.1\n")
        (chunk,) = iter_edge_chunks(path)
        assert chunk.tolist() == [[0, 1], [1, 2]]

    def test_invalid_chunk_size(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            list(iter_edge_chunks(path, chunk_edges=0))

    @pytest.mark.parametrize("bad, reason", [
        ("x 2", "non-integer endpoint"),
        ("1.0 2", "non-integer endpoint"),
        ("7", "expected 'u v', got 1 fields"),
        ("-3 2", "negative endpoint"),
        ("2 -3", "negative endpoint"),
        (f"{2**63} 1", "endpoint past int64"),
    ])
    def test_bad_line_is_a_typed_line_numbered_error(
        self, tmp_path, bad, reason
    ):
        path = tmp_path / "g.txt"
        path.write_text(f"# header\n0 1\n\n  {bad}  \n1 2\n")
        with pytest.raises(EdgeListError) as err:
            list(iter_edge_chunks(path))
        assert (err.value.line_no, err.value.reason) == (4, reason)
        assert err.value.line == bad
        assert err.value.path == str(path)
        assert str(err.value).startswith(f"{path}:4: {reason}")
        with pytest.raises(EdgeListError):
            read_edge_list(path)

    def test_int_spellings_outside_loadtxt_still_parse(self, tmp_path):
        # int() accepts these; numpy's loadtxt does not, so the chunk
        # takes the per-line path and yields the same edges as before.
        path = tmp_path / "g.txt"
        path.write_text("1_0 +3\n\u0661 0\n0 1 # trailing\n")
        (chunk,) = iter_edge_chunks(path)
        assert chunk.dtype == np.int64
        assert chunk.tolist() == [[10, 3], [1, 0], [0, 1]]

    def test_first_bad_chunk_raises_after_good_chunks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\nbad\n")
        chunks = iter_edge_chunks(path, chunk_edges=2)
        assert next(chunks).tolist() == [[0, 1], [1, 2]]
        with pytest.raises(EdgeListError) as err:
            next(chunks)
        assert err.value.line_no == 4


class TestEdgeList:
    def test_roundtrip(self, small, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(small, path, header="test graph")
        back = read_edge_list(path)
        assert back == small

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.n_edges == 2

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n1 2 0.9\n")
        g = read_edge_list(path)
        assert g.n_edges == 2

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, n_vertices=5)
        assert g.n_vertices == 5


class TestTemporalEdgeChunks:
    def test_chunks_and_default_weight(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# ts log\n0 1 3.5\n1 2 0.5 2.0\n\n2 3 7.0\n")
        chunks = list(iter_temporal_edge_chunks(path, chunk_edges=2))
        assert [len(c) for c in chunks] == [2, 1]
        rows = np.concatenate(chunks)
        assert rows.tolist() == [
            [0.0, 1.0, 3.5, 1.0],
            [1.0, 2.0, 0.5, 2.0],
            [2.0, 3.0, 7.0, 1.0],
        ]

    def test_bad_arity_reports_line_number(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n0 1 1.0\n0 1\n")
        with pytest.raises(TemporalEdgeError) as err:
            list(iter_temporal_edge_chunks(path))
        assert err.value.line_no == 3
        assert str(path) in str(err.value)
        assert "3:" in str(err.value)

    def test_non_numeric_timestamp(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0 1 yesterday\n")
        with pytest.raises(TemporalEdgeError) as err:
            list(iter_temporal_edge_chunks(path))
        assert err.value.line_no == 1
        assert "timestamp" in err.value.reason

    def test_non_finite_timestamp(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0 1 nan\n")
        with pytest.raises(TemporalEdgeError):
            list(iter_temporal_edge_chunks(path))

    def test_negative_weight(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0 1 1.0 1.0\n1 2 2.0 -0.5\n")
        with pytest.raises(TemporalEdgeError) as err:
            list(iter_temporal_edge_chunks(path))
        assert err.value.line_no == 2
        assert err.value.reason == "negative weight"

    @pytest.mark.parametrize("weight", ["inf", "nan", "-inf", "1e999"])
    def test_non_finite_weight_has_its_own_reason(self, tmp_path, weight):
        path = tmp_path / "t.tsv"
        path.write_text(f"0 1 1.0 1.0\n0 1 1.0 {weight}\n")
        with pytest.raises(TemporalEdgeError) as err:
            list(iter_temporal_edge_chunks(path))
        assert err.value.line_no == 2
        assert err.value.reason == "non-finite weight"

    def test_negative_endpoint(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("-1 2 1.0\n")
        with pytest.raises(TemporalEdgeError) as err:
            list(iter_temporal_edge_chunks(path))
        assert err.value.line_no == 1

    def test_error_is_a_value_error(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            list(iter_temporal_edge_chunks(path))

    def test_error_is_an_edge_list_error(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0\n")
        with pytest.raises(EdgeListError) as err:
            list(iter_temporal_edge_chunks(path))
        assert isinstance(err.value, TemporalEdgeError)

    def test_mixed_arity_chunk_parses(self, tmp_path):
        # 3- and 4-field lines in one chunk: numpy refuses the chunk,
        # the per-line parser reads it.
        path = tmp_path / "t.tsv"
        path.write_text("0 1 1.5\n1 2 2.5 0.5\n2 3 1_0\n")
        (chunk,) = iter_temporal_edge_chunks(path)
        assert chunk.tolist() == [
            [0.0, 1.0, 1.5, 1.0],
            [1.0, 2.0, 2.5, 0.5],
            [2.0, 3.0, 10.0, 1.0],
        ]

    def test_inline_hash_is_a_field(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0 1 2\n0 1 2 # note\n")
        with pytest.raises(TemporalEdgeError) as err:
            list(iter_temporal_edge_chunks(path))
        assert err.value.line_no == 2
        assert err.value.reason == "expected 'src dst ts [w]', got 5 fields"


class TestTemporalSorted:
    def test_streamed_sort_matches_full_sort(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 100
        rows = np.column_stack([
            rng.integers(0, 20, n),
            rng.integers(0, 20, n),
            rng.permutation(n).astype(float),
            np.ones(n),
        ]).astype(np.float64)
        path = tmp_path / "t.tsv"
        write_temporal_edge_list(rows, path, header="shuffled")
        # Tiny chunks force the external merge path (many runs).
        streamed = np.concatenate(
            list(iter_temporal_edges_sorted(path, chunk_edges=7))
        )
        expected = rows[np.argsort(rows[:, 2], kind="stable")]
        assert np.array_equal(streamed, expected)

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0 1 5.0\n2 3 5.0\n4 5 1.0\n6 7 5.0\n")
        rows = np.concatenate(
            list(iter_temporal_edges_sorted(path, chunk_edges=2))
        )
        assert rows[:, 0].tolist() == [4.0, 0.0, 2.0, 6.0]

    def test_already_sorted_roundtrip(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0 1 1.0\n1 2 2.0 0.5\n")
        rows = np.concatenate(list(iter_temporal_edges_sorted(path)))
        assert rows.tolist() == [
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 2.0, 2.0, 0.5],
        ]

    def test_empty_log(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# nothing\n")
        assert list(iter_temporal_edges_sorted(path)) == []


class TestVertexScalars:
    def test_roundtrip(self, tmp_path):
        values = np.array([0.5, 1.25, -3.0, 42.0])
        path = tmp_path / "s.txt"
        write_vertex_scalars(values, path)
        back = read_vertex_scalars(path, 4)
        assert np.allclose(back, values)

    def test_missing_vertex_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0 1.0\n2 2.0\n")
        with pytest.raises(ValueError, match="no scalar value"):
            read_vertex_scalars(path, 3)


class TestEdgeScalars:
    def test_roundtrip(self, small, tmp_path):
        values = np.arange(small.n_edges, dtype=np.float64) + 0.5
        path = tmp_path / "es.txt"
        write_edge_scalars(small, values, path)
        back = read_edge_scalars(path, small)
        assert np.allclose(back, values)

    def test_wrong_length_rejected(self, small, tmp_path):
        with pytest.raises(ValueError):
            write_edge_scalars(small, np.zeros(2), tmp_path / "x.txt")

    def test_missing_edge_rejected(self, small, tmp_path):
        path = tmp_path / "es.txt"
        path.write_text("0 1 1.0\n")
        with pytest.raises(ValueError, match="no scalar value"):
            read_edge_scalars(path, small)


# ---------------------------------------------------------------------------
# Equivalence fences: the chunked numpy readers against per-line references
# ---------------------------------------------------------------------------


def _reference_chunks(path, chunk_edges, parse_line, dtype):
    """Per-line reading: strip, skip blank and '#' lines, parse each data
    line, cut a chunk every ``chunk_edges`` data rows."""
    buf = []
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            buf.append(parse_line(path, line_no, line))
            if len(buf) >= chunk_edges:
                yield np.array(buf, dtype=dtype)
                buf = []
    if buf:
        yield np.array(buf, dtype=dtype)


def _reference_edge(path, line_no, line):
    parts = line.split()
    if len(parts) < 2:
        raise EdgeListError(
            path, line_no, line, f"expected 'u v', got {len(parts)} fields"
        )
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListError(path, line_no, line, "non-integer endpoint")
    if u < 0 or v < 0:
        raise EdgeListError(path, line_no, line, "negative endpoint")
    if max(u, v) >= 2**63:
        raise EdgeListError(path, line_no, line, "endpoint past int64")
    return u, v


def _reference_temporal(path, line_no, line):
    def bad(reason):
        return TemporalEdgeError(path, line_no, line, reason)

    parts = line.split()
    if len(parts) not in (3, 4):
        raise bad(f"expected 'src dst ts [w]', got {len(parts)} fields")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise bad("non-integer endpoint")
    if u < 0 or v < 0:
        raise bad("negative endpoint")
    try:
        ts = float(parts[2])
    except ValueError:
        raise bad("non-numeric timestamp")
    if not math.isfinite(ts):
        raise bad("non-finite timestamp")
    w = 1.0
    if len(parts) == 4:
        try:
            w = float(parts[3])
        except ValueError:
            raise bad("non-numeric weight")
        if not math.isfinite(w):
            raise bad("non-finite weight")
        if w < 0:
            raise bad("negative weight")
    return u, v, ts, w


def _outcome(chunks):
    """(chunks yielded before any error, (error class, line_no, reason))."""
    got = []
    try:
        for chunk in chunks:
            got.append(chunk)
    except EdgeListError as exc:
        return got, (type(exc), exc.line_no, exc.reason)
    return got, None


def _assert_same_outcome(actual, expected):
    (got, error), (want, want_error) = _outcome(actual), _outcome(expected)
    assert error == want_error
    assert [(c.dtype, c.shape) for c in got] == [
        (c.dtype, c.shape) for c in want
    ]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


_INTS = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.sampled_from(["+3", "007", "-0"]),
)
_FLOATS = st.one_of(
    _INTS, st.sampled_from(["2.5", "0.125", "1e3", "-0.0", ".5", "1."])
)
# Every spelling where int()/float() and numpy's loadtxt could disagree.
_ODD = st.sampled_from([
    "-1", "1_0", "1.0", "nan", "inf", "-inf", "1e999", "0x10", "x", "#",
    "\u0663", str(2**63 - 1), str(2**63), str(2**64 + 5), str(-2**63 - 1),
])
_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def _log_text(draw):
    """A file of blank, comment and data lines.  Either every data line
    is well formed with one arity (2, 3 or 4 fields: the numpy path), or
    anything goes (2-5 fields of any token); either way some lines end
    in an inline '#' comment, which is not a comment."""
    arity = draw(st.sampled_from([None, 2, 3, 4]))
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        kind = draw(st.sampled_from(["data"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c", "  # c", "#"])))
            continue
        if arity:
            fields = [draw(_INTS), draw(_INTS)]
            fields += [draw(_FLOATS) for _ in range(arity - 2)]
        else:
            fields = draw(st.lists(
                st.one_of(_INTS, _FLOATS, _ODD), min_size=2, max_size=5
            ))
        line = fields[0]
        for field in fields[1:]:
            line += draw(_SEPARATORS) + field
        if draw(st.integers(0, 9)) == 0:
            line += " # inline"
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("io-equivalence") / "log.txt"


class TestReaderEquivalence:
    def test_lenient_loadtxt_is_never_handed_a_chunk(
        self, tmp_path, monkeypatch
    ):
        # Some numpy releases parse '1.5' in an int64 column via float;
        # the once-per-process probe must then send every chunk to the
        # per-line parsers.
        def lenient_loadtxt(lines, dtype=None, **kwargs):
            assert list(lines) == ["1.5"], "a data chunk reached loadtxt"
            return np.array([1], dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        graph_io._strict_loadtxt.cache_clear()
        try:
            path = tmp_path / "g.txt"
            path.write_text("0 1 1.0\n1.5 2 2.0\n")
            for reader in (iter_edge_chunks, iter_temporal_edge_chunks):
                with pytest.raises(EdgeListError) as err:
                    list(reader(path))
                assert err.value.line_no == 2
                assert err.value.reason == "non-integer endpoint"
        finally:
            graph_io._strict_loadtxt.cache_clear()

    @settings(max_examples=120, deadline=None)
    @given(text=_log_text())
    def test_chunk_readers_match_per_line_reference(self, scratch_file, text):
        scratch_file.write_text(text)
        for chunk_edges in (1, 2, 7, DEFAULT_CHUNK_EDGES):
            _assert_same_outcome(
                iter_temporal_edge_chunks(scratch_file, chunk_edges),
                _reference_chunks(scratch_file, chunk_edges,
                                  _reference_temporal, np.float64),
            )
            _assert_same_outcome(
                iter_edge_chunks(scratch_file, chunk_edges),
                _reference_chunks(scratch_file, chunk_edges,
                                  _reference_edge, np.int64),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=600),
        levels=st.sampled_from([1, 2, 4, 1000]),
        order=st.sampled_from(["file", "sorted", "reversed"]),
        chunk_edges=st.sampled_from([1, 2, 3, 7, 65, 100, 130]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sorted_stream_is_the_stable_sort(
        self, scratch_file, n_rows, levels, order, chunk_edges, seed
    ):
        # levels=1 puts every row at one timestamp, 2 and 4 give heavy
        # ties.  The src column is the file position, so a tie resolved
        # out of file order shows up.  chunk_edges 1-7 makes more runs
        # than chunk_edges; 65-130 makes runs longer than the 64-row
        # merge window, so cuts fall inside runs.
        ts = np.random.default_rng(seed).integers(0, levels, n_rows) / 4.0
        if order == "sorted":
            ts = np.sort(ts)
        elif order == "reversed":
            ts = np.sort(ts)[::-1]
        rows = np.column_stack([
            np.arange(n_rows), np.arange(n_rows) % 5, ts, np.ones(n_rows),
        ]).astype(np.float64)
        write_temporal_edge_list(rows, scratch_file)
        chunks = list(iter_temporal_edges_sorted(scratch_file, chunk_edges))
        assert all(0 < len(c) <= chunk_edges for c in chunks)
        merged = np.concatenate(chunks) if chunks else np.empty((0, 4))
        expected = rows[np.argsort(rows[:, 2], kind="stable")]
        assert merged.tobytes() == expected.tobytes()


# Free bytes, and lines of fields among which sit invalid or cut UTF-8,
# NUL and the separators str.split() and numpy disagree on.
_FIELD = st.sampled_from([
    b"0", b"7", b"12", b"-1", b"1.5", b"nan", b"1e999", b"1_0", b"#",
    "\u0663".encode(), str(2**64).encode(), b"7\xff", b"\xff", b"\xfe\xff",
    b"\x80", b"\xc3", b"\xe2\x80", b"\x00", b"\r", b"\x0b", b"\x1c",
    b"\x85", b"\xc2\x85",
])
_LOG_BYTES = st.one_of(
    st.binary(max_size=160),
    st.lists(
        st.lists(_FIELD, min_size=1, max_size=4).map(b" ".join), max_size=12
    ).map(b"\n".join),
)


class TestReaderFuzz:
    @settings(max_examples=75, deadline=None)
    @given(data=_LOG_BYTES)
    def test_any_bytes_give_arrays_or_a_typed_error(self, scratch_file, data):
        scratch_file.write_bytes(data)
        for reader, error in (
            (iter_edge_chunks, EdgeListError),
            (iter_temporal_edge_chunks, TemporalEdgeError),
        ):
            try:
                chunks = list(reader(scratch_file, 3))
            except error as exc:
                assert exc.line_no >= 1
            else:
                assert all(isinstance(c, np.ndarray) for c in chunks)
