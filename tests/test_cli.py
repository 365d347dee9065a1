"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import from_edges
from repro.graph.io import write_edge_list


@pytest.fixture
def edge_list_file(tmp_path):
    graph = from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6)]  # K6
        + [(5, 6), (6, 7), (7, 8)]
    )
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["peaks", "--dataset", "grqc"])
        assert args.command == "peaks"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()  # "repro X.Y.Z"


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.datasets == "grqc"
        assert args.measures == "kcore"
        assert args.workers == 0
        assert args.tile_size == 64
        assert args.levels == 3
        assert args.cache_memory_mb is None

    def test_help_mentions_key_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--host", "--port", "--datasets", "--measures", "--workers",
            "--cache-dir", "--tile-size", "--levels", "--stream-log",
        ):
            assert flag in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["serve", "--datasets", "atlantis"])

    def test_unknown_measure_rejected(self):
        with pytest.raises(SystemExit, match="--measures"):
            main(["serve", "--measures", "nonsense"])

    def test_bad_edge_list_spec_rejected(self):
        with pytest.raises(SystemExit, match="NAME=PATH"):
            main(["serve", "--edge-list", "justapath.txt"])

    def test_missing_edge_list_rejected(self):
        with pytest.raises(SystemExit, match="edge list not found"):
            main(["serve", "--edge-list", "toy=/does/not/exist.txt"])

    def test_malformed_edge_list_fails_the_boot(
        self, tmp_path, capsys, monkeypatch
    ):
        import asyncio

        def no_server(coro):
            coro.close()
            raise AssertionError("the server booted")

        monkeypatch.setattr(asyncio, "run", no_server)
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 nope\n")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--edge-list", f"bad={bad}"])
        message = str(exc.value.code)
        assert message == f"bad edge list {bad}:2: non-integer endpoint: '1 nope'"
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_stream_log_spec_rejected(self, edge_list_file):
        with pytest.raises(SystemExit, match="NAME=DATASET:MEASURE"):
            main([
                "serve", "--edge-list", f"toy={edge_list_file}",
                "--stream-log", "broken",
            ])

    def test_stream_log_unserved_dataset_rejected(self, edge_list_file):
        with pytest.raises(SystemExit, match="is not served"):
            main([
                "serve", "--edge-list", f"toy={edge_list_file}",
                "--stream-log", "s=ghost:kcore:/tmp/x.jsonl",
            ])

    def test_negative_cache_memory_rejected(self):
        with pytest.raises(SystemExit, match="cache-memory-mb"):
            main(["serve", "--cache-memory-mb", "-5"])

    def test_bad_pyramid_flags_rejected_at_boot(self):
        with pytest.raises(SystemExit, match="--tile-size"):
            main(["serve", "--tile-size", "9"])
        with pytest.raises(SystemExit, match="--tile-size"):
            main(["serve", "--tile-size", "4"])
        with pytest.raises(SystemExit, match="--levels"):
            main(["serve", "--levels", "0"])
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "-1"])


class TestTerrainCommand:
    def test_renders_from_edge_list(self, edge_list_file, tmp_path):
        out = tmp_path / "terrain.png"
        code = main([
            "terrain", "--edge-list", edge_list_file,
            "--measure", "kcore", "-o", str(out),
            "--resolution", "32", "--width", "64", "--height", "48",
        ])
        assert code == 0
        assert out.exists()

    def test_simplify_bins(self, edge_list_file, tmp_path):
        out = tmp_path / "t.png"
        code = main([
            "terrain", "--edge-list", edge_list_file, "--bins", "3",
            "-o", str(out), "--resolution", "32",
            "--width", "64", "--height", "48",
        ])
        assert code == 0

    def test_unknown_measure(self, edge_list_file):
        with pytest.raises(SystemExit):
            main([
                "terrain", "--edge-list", edge_list_file,
                "--measure", "nonsense",
            ])

    def test_unknown_measure_is_parse_error_with_choices(
        self, edge_list_file, capsys
    ):
        # Validated at argparse level against the measure registry: the
        # process exits with the usage-error code and the message lists
        # the known measures.
        with pytest.raises(SystemExit) as exc:
            main([
                "terrain", "--edge-list", edge_list_file,
                "--measure", "nonsense",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nonsense'" in err
        assert "kcore" in err and "ktruss" in err

    def test_missing_input(self):
        with pytest.raises(SystemExit):
            main(["terrain"])

    @pytest.mark.parametrize("bad, reason", [
        ("x 2", "non-integer endpoint"),
        ("3", "expected 'u v', got 1 fields"),
        ("-1 2", "negative endpoint"),
    ])
    def test_malformed_edge_list_is_a_one_line_error(
        self, tmp_path, bad, reason
    ):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1\n{bad}\n")
        with pytest.raises(SystemExit) as exc:
            main(["terrain", "--edge-list", str(path),
                  "-o", str(tmp_path / "t.png")])
        message = str(exc.value.code)
        assert f"{path}:2: {reason}" in message
        assert "\n" not in message
        assert not (tmp_path / "t.png").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--height", "0", "must be >= 1, got '0'"),
        ("--width", "0", "must be >= 1, got '0'"),
        ("--width", "-5", "must be >= 1, got '-5'"),
        ("--width", "2.5", "invalid int value: '2.5'"),
        ("--resolution", "1", "must be >= 4, got '1'"),
        ("--zoom", "0", "must be > 0, got '0'"),
        ("--zoom", "-2", "must be > 0, got '-2'"),
        ("--zoom", "nan", "must be finite, got 'nan'"),
    ])
    def test_bad_render_flag_is_one_line_usage_error(
        self, edge_list_file, capsys, flag, value, message
    ):
        with pytest.raises(SystemExit) as exc:
            main(["terrain", "--edge-list", edge_list_file, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            f"repro terrain: error: argument {flag}: {message}"
        )

    def test_smallest_render_flags_accepted(self, edge_list_file, tmp_path):
        out = tmp_path / "tiny.png"
        assert main([
            "terrain", "--edge-list", edge_list_file, "-o", str(out),
            "--resolution", "4", "--width", "1", "--height", "1",
            "--zoom", "0.5",
        ]) == 0
        assert out.exists()


class TestPeaksCommand:
    def test_lists_clique_core(self, edge_list_file, capsys):
        code = main([
            "peaks", "--edge-list", edge_list_file,
            "--measure", "kcore", "--count", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "level 5" in out  # K6 is a 5-core
        assert "6 vertices" in out

    def test_edge_measure(self, edge_list_file, capsys):
        code = main([
            "peaks", "--edge-list", edge_list_file,
            "--measure", "ktruss", "--count", "1",
        ])
        assert code == 0
        assert "edges" in capsys.readouterr().out


class TestLinked2DCommands:
    def test_treemap(self, edge_list_file, tmp_path):
        out = tmp_path / "m.svg"
        assert main([
            "treemap", "--edge-list", edge_list_file, "-o", str(out),
        ]) == 0
        assert out.read_text().startswith("<svg")

    def test_profile(self, edge_list_file, tmp_path):
        out = tmp_path / "p.svg"
        assert main([
            "profile", "--edge-list", edge_list_file, "-o", str(out),
        ]) == 0
        assert out.read_text().startswith("<svg")


class TestStreamCommand:
    @pytest.fixture
    def edit_log(self, tmp_path):
        from repro.stream import AddEdge, RemoveEdge, SetScalar, write_edit_log

        return str(write_edit_log(
            tmp_path / "edits.jsonl",
            [
                [SetScalar(8, 1.0), AddEdge(0, 7)],
                [RemoveEdge(0, 7)],
                [SetScalar(8, 2.0)],
            ],
            times=[0.0, 1.0, 2.0],
        ))

    def test_replays_and_emits_frames(self, edge_list_file, edit_log,
                                      tmp_path, capsys):
        frames = tmp_path / "frames"
        code = main([
            "stream", "--edge-list", edge_list_file, "--log", edit_log,
            "--frames-dir", str(frames), "--frame-every", "2",
            "--resolution", "24", "--width", "48", "--height", "36",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 3 batches (4 edits)" in out
        assert sorted(p.name for p in frames.iterdir()) == [
            "frame_00000.png", "frame_00002.png",
        ]

    def test_replays_without_frames(self, edge_list_file, edit_log, capsys):
        assert main([
            "stream", "--edge-list", edge_list_file, "--log", edit_log,
        ]) == 0
        out = capsys.readouterr().out
        assert "final tree:" in out
        assert "frames" not in out.splitlines()[-1]

    def test_window_replay(self, edge_list_file, edit_log, capsys):
        assert main([
            "stream", "--edge-list", edge_list_file, "--log", edit_log,
            "--window", "1.5",
        ]) == 0
        assert "replayed 3 batches" in capsys.readouterr().out

    def test_window_mixed_timestamps(self, edge_list_file, tmp_path,
                                     capsys):
        # Timed commit followed by a trailing untimed batch: the index
        # fallback must not step backwards past the explicit t=7.5.
        log = tmp_path / "mixed.jsonl"
        log.write_text(
            '{"op": "add", "u": 0, "v": 7}\n'
            '{"op": "commit", "t": 7.5}\n'
            '{"op": "set", "v": 8, "value": 1.0}\n'
        )
        assert main([
            "stream", "--edge-list", edge_list_file, "--log", str(log),
            "--window", "2.0",
        ]) == 0
        assert "replayed 2 batches" in capsys.readouterr().out

    def test_edge_measures_rejected(self, edge_list_file, edit_log):
        with pytest.raises(SystemExit):
            main([
                "stream", "--edge-list", edge_list_file, "--log", edit_log,
                "--measure", "ktruss",
            ])

    def test_edge_measures_rejected_at_parse_time(
        self, edge_list_file, edit_log, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([
                "stream", "--edge-list", edge_list_file, "--log", edit_log,
                "--measure", "ktruss",
            ])
        assert exc.value.code == 2
        assert "vertex measures only" in capsys.readouterr().err

    def test_missing_log(self, edge_list_file):
        with pytest.raises(SystemExit, match="edit log not found"):
            main([
                "stream", "--edge-list", edge_list_file,
                "--log", "does-not-exist.jsonl",
            ])

    @pytest.mark.parametrize("flag, value, message", [
        ("--width", "0", "must be >= 1, got '0'"),
        ("--height", "-1", "must be >= 1, got '-1'"),
        ("--resolution", "3", "must be >= 4, got '3'"),
    ])
    def test_bad_render_flag_is_one_line_usage_error(
        self, edge_list_file, edit_log, capsys, flag, value, message
    ):
        with pytest.raises(SystemExit) as exc:
            main([
                "stream", "--edge-list", edge_list_file,
                "--log", edit_log, flag, value,
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            f"repro stream: error: argument {flag}: {message}"
        )

    def test_malformed_log(self, edge_list_file, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"op": "explode"}\n')
        with pytest.raises(SystemExit, match="bad edit log"):
            main([
                "stream", "--edge-list", edge_list_file, "--log", str(bad),
            ])

    def test_out_of_range_edit(self, edge_list_file, tmp_path):
        oob = tmp_path / "oob.jsonl"
        oob.write_text('{"op": "set", "v": 999, "value": 1.0}\n')
        with pytest.raises(SystemExit, match="edit batch 0"):
            main([
                "stream", "--edge-list", edge_list_file, "--log", str(oob),
            ])

    def test_negative_window(self, edge_list_file, edit_log):
        with pytest.raises(SystemExit, match="--window"):
            main([
                "stream", "--edge-list", edge_list_file, "--log", edit_log,
                "--window", "-1",
            ])

    def test_frame_every_validated(self, edge_list_file, edit_log, tmp_path):
        with pytest.raises(SystemExit, match="--frame-every"):
            main([
                "stream", "--edge-list", edge_list_file, "--log", edit_log,
                "--frames-dir", str(tmp_path / "f"), "--frame-every", "0",
            ])

    def test_bins_simplify_frames(self, edge_list_file, edit_log, tmp_path):
        frames = tmp_path / "frames"
        assert main([
            "stream", "--edge-list", edge_list_file, "--log", edit_log,
            "--frames-dir", str(frames), "--bins", "2",
            "--resolution", "24", "--width", "48", "--height", "36",
        ]) == 0
        assert (frames / "frame_00000.png").exists()


class TestCorrelateCommand:
    def test_gci_printed(self, edge_list_file, capsys):
        code = main([
            "correlate", "--edge-list", edge_list_file,
            "degree", "pagerank", "--count", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GCI(degree, pagerank)" in out
        assert "outlier" in out

    def test_unknown_field(self, edge_list_file):
        with pytest.raises(SystemExit):
            main([
                "correlate", "--edge-list", edge_list_file,
                "degree", "nonsense",
            ])

    def test_edge_field_rejected(self, edge_list_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "correlate", "--edge-list", edge_list_file,
                "degree", "ktruss",
            ])
        assert exc.value.code == 2
        assert "vertex measures only" in capsys.readouterr().err


class TestCacheDir:
    def test_terrain_populates_cache(self, edge_list_file, tmp_path):
        cache_dir = tmp_path / "cache"
        out = tmp_path / "t.png"
        assert main([
            "terrain", "--edge-list", edge_list_file,
            "--cache-dir", str(cache_dir), "-o", str(out),
            "--resolution", "24", "--width", "48", "--height", "36",
        ]) == 0
        assert list(cache_dir.glob("*.json"))  # persisted stage artifacts


class TestEvolveCommand:
    def test_synthetic_run_scores_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "evolve", "--synthetic",
            "--windows", "6", "--community-size", "16",
            "--p-in", "0.8", "--alpha", "3", "--min-size", "5",
            "--resolution", "128", "-o", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "event F1 vs planted ground truth" in text
        report = json.loads(out.read_text())
        assert report["event_f1"] >= 0.9
        assert len(report["windows"]) == 6
        assert "diff" in report["windows"][1]
        kinds = {e["kind"] for e in report["events"]}
        assert "birth" in kinds and "merge" in kinds

    def test_log_mode_roundtrips_written_log(self, tmp_path, capsys):
        log_path = tmp_path / "dyn.tsv"
        code = main([
            "evolve", "--synthetic", "--windows", "4",
            "--write-log", str(log_path), "--resolution", "0",
        ])
        assert code == 0
        assert log_path.exists()
        code = main([
            "evolve", "--log", str(log_path), "--origin", "0",
            "--resolution", "0",
        ])
        assert code == 0
        assert "tracked" in capsys.readouterr().out

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            main(["evolve"])
        with pytest.raises(SystemExit):
            main(["evolve", "--log", "x.tsv", "--synthetic"])

    def test_missing_log_rejected(self):
        with pytest.raises(SystemExit):
            main(["evolve", "--log", "/does/not/exist.tsv"])

    def test_bad_window_rejected(self):
        with pytest.raises(SystemExit):
            main(["evolve", "--synthetic", "--window", "0"])

    @pytest.mark.parametrize("flag, value", [
        ("--window", "nan"), ("--window", "inf"),
        ("--stride", "-1"), ("--stride", "nan"),
        ("--origin", "-inf"),
    ])
    def test_non_finite_window_flags_are_one_line(self, flag, value):
        # Unchecked, a negative stride escapes as a ValueError
        # traceback, a NaN window runs one frame and an -inf origin
        # never ends.
        with pytest.raises(SystemExit, match=f"^{flag} must be"):
            main(["evolve", "--synthetic", f"{flag}={value}"])

    def test_edge_measure_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            main(["evolve", "--synthetic", "--measure", "ktruss"])
        assert "vertex measures only" in capsys.readouterr().err

    def test_malformed_log_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0 1 1.0\n0 nope 2.0\n")
        with pytest.raises(SystemExit, match="bad temporal log"):
            main(["evolve", "--log", str(bad), "--resolution", "0"])

    def test_non_finite_weight_is_named(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0 1 1.0 1.0\n0 1 1.0 inf\n")
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--log", str(bad), "--resolution", "0"])
        assert f"{bad}:2: non-finite weight" in str(exc.value.code)


class TestServeEvolveFlags:
    def test_bad_evolve_log_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--evolve-log"):
            main(["serve", "--evolve-log", "demo=degree:notaspec"])

    def test_bad_window_rejected(self, tmp_path):
        log = tmp_path / "t.tsv"
        log.write_text("0 1 0.5\n")
        with pytest.raises(SystemExit, match="positive"):
            main([
                "serve",
                "--evolve-log", f"demo=degree:zero:{log}",
            ])

    def test_non_finite_window_rejected(self, tmp_path):
        log = tmp_path / "t.tsv"
        log.write_text("0 1 0.5\n")
        with pytest.raises(SystemExit, match="finite"):
            main(["serve", "--evolve-log", f"demo=degree:nan:{log}"])

    def test_missing_temporal_log_rejected(self):
        with pytest.raises(SystemExit, match="not found"):
            main([
                "serve",
                "--evolve-log", "demo=degree:1.0:/does/not/exist.tsv",
            ])

    def test_malformed_temporal_log_fails_the_boot(
        self, tmp_path, capsys, monkeypatch
    ):
        import asyncio

        def no_server(coro):
            coro.close()
            raise AssertionError("the server booted")

        monkeypatch.setattr(asyncio, "run", no_server)
        bad = tmp_path / "bad.tsv"
        bad.write_text("0 1 1.0\n0 nope 2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--evolve-log", f"demo=degree:1.0:{bad}"])
        message = str(exc.value.code)
        assert message.startswith(f"bad temporal log {bad}: ")
        assert f"{bad}:2: non-integer endpoint" in message
        assert "\n" not in message
        assert "Traceback" not in capsys.readouterr().err
