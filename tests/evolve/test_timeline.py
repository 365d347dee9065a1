"""Windowed timeline: slicing, gaps, exactness, loader integration."""

from itertools import islice

import numpy as np
import pytest

from repro.evolve import (
    Timeline,
    frames_from_log,
    frames_from_rows,
    temporal_log_stats,
)
from repro.graph.generators import dynamic_planted_partition
from repro.graph.io import write_temporal_edge_list


def _rows(triples):
    """(u, v, ts) triples -> (k, 4) row array with unit weights."""
    arr = np.array([[u, v, ts, 1.0] for u, v, ts in triples], np.float64)
    return arr.reshape(-1, 4)


class TestSlicing:
    def test_one_frame_per_window(self):
        rows = _rows([(0, 1, 0.1), (1, 2, 0.2), (2, 3, 1.5), (0, 3, 2.5)])
        frames = list(frames_from_rows(rows, 4, horizon=1.0, origin=0.0))
        assert [f.index for f in frames] == [0, 1, 2]
        assert [f.n_edges for f in frames] == [2, 1, 1]
        assert [f.n_new_edges for f in frames] == [2, 1, 1]
        assert frames[0].t_start == 0.0
        assert frames[0].t_end == 1.0

    def test_quiet_interval_emits_empty_frames(self):
        rows = _rows([(0, 1, 0.5), (2, 3, 3.5)])
        frames = list(frames_from_rows(rows, 4, horizon=1.0, origin=0.0))
        assert [f.index for f in frames] == [0, 1, 2, 3]
        assert [f.n_edges for f in frames] == [1, 0, 0, 1]

    def test_default_origin_puts_first_edge_in_frame_zero(self):
        rows = _rows([(0, 1, 7.0), (1, 2, 7.9)])
        (frame,) = frames_from_rows(rows, 3, horizon=1.0)
        assert frame.index == 0
        assert frame.n_edges == 2

    def test_duplicate_and_self_loop_rows_collapse(self):
        rows = _rows([
            (0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3), (2, 2, 0.4),
        ])
        (frame,) = frames_from_rows(rows, 3, horizon=1.0, origin=0.0)
        assert frame.n_edges == 1  # one undirected edge, loop dropped

    def test_scalars_follow_the_window(self):
        # degree must be the *window's* degree, not cumulative.
        rows = _rows([(0, 1, 0.5), (0, 2, 1.5)])
        f0, f1 = frames_from_rows(rows, 3, horizon=1.0, origin=0.0)
        assert f0.scalars.tolist() == [1.0, 1.0, 0.0]
        assert f1.scalars.tolist() == [1.0, 0.0, 1.0]

    def test_sliding_stride_overlaps(self):
        rows = _rows([(0, 1, 0.25), (1, 2, 0.75), (2, 3, 1.25)])
        frames = list(frames_from_rows(
            rows, 4, horizon=1.0, stride=0.5, origin=0.0
        ))
        # Frames end at 1.0, 1.5, ...; the first holds both sub-0.5
        # edges, the second still holds the 0.75 edge (within horizon).
        assert frames[0].n_edges == 2
        assert frames[1].n_edges >= 2

    def test_unsorted_rows_rejected(self):
        rows = _rows([(0, 1, 2.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="non-decreasing"):
            list(frames_from_rows(rows, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline(4, horizon=0.0)
        with pytest.raises(ValueError):
            Timeline(4, stride=-1.0)
        with pytest.raises(ValueError):
            Timeline(4, measure="ktruss")  # edge measure

    @pytest.mark.parametrize("kwargs", [
        {"horizon": np.nan}, {"horizon": np.inf},
        {"stride": np.nan}, {"stride": np.inf},
        {"origin": np.nan}, {"origin": -np.inf},
    ], ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
    def test_non_finite_window_parameters_rejected(self, kwargs):
        # Unchecked, an origin of -inf never reaches the first row and
        # yields empty frames forever; the islice bounds that loop.
        rows = _rows([(0, 1, 0.5)])
        with pytest.raises(ValueError, match="finite"):
            list(islice(frames_from_rows(rows, 2, **kwargs), 50))


class TestLogIntegration:
    @pytest.fixture(scope="class")
    def log(self):
        return dynamic_planted_partition(n_windows=4, seed=1)

    def test_frames_from_log_matches_rows(self, log, tmp_path):
        path = tmp_path / "dyn.tsv"
        log.write(path)
        stats = temporal_log_stats(path)
        assert stats["n_rows"] == len(log.rows)
        from_rows = list(frames_from_rows(
            log.rows, log.n_vertices, origin=log.origin
        ))
        from_log = list(frames_from_log(
            path, origin=log.origin, chunk_edges=37
        ))
        assert len(from_rows) == len(from_log) == log.n_windows
        for a, b in zip(from_rows, from_log):
            assert a.n_edges == b.n_edges
            assert np.array_equal(a.scalars, b.scalars)
            assert np.array_equal(a.tree.parent, b.tree.parent)

    def test_unsorted_log_is_sorted_on_the_fly(self, log, tmp_path):
        path = tmp_path / "shuffled.tsv"
        rng = np.random.default_rng(0)
        write_temporal_edge_list(
            log.rows[rng.permutation(len(log.rows))], path
        )
        frames = list(frames_from_log(
            path, origin=log.origin, chunk_edges=53
        ))
        ref = list(frames_from_rows(
            log.rows, log.n_vertices, origin=log.origin
        ))
        assert [f.n_edges for f in frames] == [f.n_edges for f in ref]

    def test_describe_is_json_shaped(self, log):
        frame = next(iter(frames_from_rows(
            log.rows, log.n_vertices, origin=log.origin
        )))
        doc = frame.describe()
        assert doc["index"] == 0
        assert doc["n_edges"] == frame.n_edges
        assert {"t_start", "t_end", "super_nodes"} <= set(doc)


class TestOutOfRangeIds:
    def test_tumbling_rejects_id_past_universe(self):
        rows = np.array([[3, 12, 0.5, 1.0], [1, 2, 0.6, 1.0]])
        with pytest.raises(ValueError, match=r"vertex id 12 .*n_vertices=10"):
            list(frames_from_rows(rows, n_vertices=10, origin=0.0))

    def test_sliding_and_negative_ids_rejected(self):
        rows = _rows([(0, 1, 0.1), (-2, 1, 0.2)])
        with pytest.raises(ValueError, match=r"vertex id -2 .*n_vertices=4"):
            list(frames_from_rows(rows, 4, stride=0.5, origin=0.0))

    def test_log_bound_checked_at_call_time(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_temporal_edge_list(_rows([(0, 1, 0.5), (2, 9, 0.7)]), path)
        with pytest.raises(ValueError, match=r"vertex id 9 .*n_vertices=5"):
            frames_from_log(path, n_vertices=5)
        (frame,) = frames_from_log(path, n_vertices=10, origin=0.0)
        assert frame.n_edges == 2


class TestMalformedRows:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "vertex id nan"),
        (1.5, "vertex id 1.5"),
        (np.inf, "vertex id inf"),
        (-np.inf, "vertex id -inf"),
    ])
    def test_non_integral_ids_rejected(self, bad, message):
        # Unchecked, NaN and 1.5 cast to vertices 0 and 1, and inf
        # overflows.
        rows = np.array([[0, 1, 0.5, 1.0], [2, bad, 0.6, 1.0]])
        with pytest.raises(ValueError, match=message):
            list(frames_from_rows(rows, 4, origin=0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_timestamps_rejected(self, bad):
        # Unchecked, the row never joins a frame and every later frame
        # comes out empty, forever; the islice bounds that loop.
        rows = np.array([[0, 1, 0.5, 1.0], [1, 2, bad, 1.0]])
        with pytest.raises(ValueError, match=f"timestamp {bad!r}"):
            list(islice(frames_from_rows(rows, 3), 50))


class TestReadOnce:
    def test_frames_from_log_reads_the_file_once(self, tmp_path, monkeypatch):
        from repro.evolve import timeline
        from repro.graph import io

        rng = np.random.default_rng(5)
        k, n = 300, 40
        body = np.column_stack([
            rng.integers(0, n - 1, (k, 2)),
            rng.integers(0, 3000, k) / 1000.0, np.ones(k),
        ])
        # The largest id appears only in the file's last rows, after
        # many chunks, and early in time so it sorts into frame 0.
        tail = np.array([[n - 1, 0, 0.25, 1.0], [3, n - 1, 2.5, 1.0]])
        rows = np.concatenate([body[rng.permutation(k)], tail])
        path = tmp_path / "shuffled.tsv"
        write_temporal_edge_list(rows, path)

        reads = []
        real = io.iter_temporal_edge_chunks

        def counting(*args, **kwargs):
            reads.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(io, "iter_temporal_edge_chunks", counting)
        monkeypatch.setattr(timeline, "iter_temporal_edge_chunks", counting)
        got = list(frames_from_log(path, origin=0.0, chunk_edges=16))
        assert len(reads) == 1
        n_vertices = temporal_log_stats(path)["n_vertices"]
        assert n_vertices == n
        ref = list(frames_from_rows(
            rows[np.argsort(rows[:, 2], kind="stable")], n_vertices,
            origin=0.0,
        ))
        assert len(got) == len(ref) == 3
        for a, b in zip(got, ref):
            assert a.graph == b.graph
            assert np.array_equal(a.scalars, b.scalars)
            assert np.array_equal(a.tree.parent, b.tree.parent)
            assert np.array_equal(a.super.parent, b.super.parent)
            assert a.stream_stats == b.stream_stats

    def test_empty_log_yields_no_frames(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing yet\n")
        assert list(frames_from_log(path)) == []

    def test_malformed_log_raises_at_call_time(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0 1 0.5\n" * 40 + "0 x 0.6\n")
        with pytest.raises(ValueError, match="bad.tsv:41"):
            frames_from_log(path, chunk_edges=8)
