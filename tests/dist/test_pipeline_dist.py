"""The out-of-core build as seen from the CLI: ``repro dist-build``."""

import pytest

from repro.cli import main
from repro.core import ScalarGraph, build_vertex_tree
from repro.core.serialize import load_tree, save_tree
from repro.dist import PARTITIONERS
from repro.engine import registry
from repro.graph import generators
from repro.graph.io import write_edge_list


@pytest.fixture(scope="module")
def graph():
    return generators.powerlaw_cluster(400, 2, 0.3, seed=8)


@pytest.fixture
def edge_file(graph, tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    return path


class TestCLI:
    def test_dist_build_end_to_end(self, edge_file, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code = main([
            "dist-build", "--edge-list", str(edge_file),
            "--scatter-dir", str(tmp_path / "shards"),
            "--measure", "degree",
            "--partitioner", "hash", "--shards", "3",
            "--verify", "-o", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "identical to single-process" in text
        assert out.exists()

    def test_dist_build_scatter_mode(self, graph, edge_file, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code = main([
            "dist-build", "--edge-list", str(edge_file),
            "--measure", "degree",
            "--scatter-dir", str(tmp_path / "shards"),
            "--max-buffer-mb", "1", "--verify", "-o", str(out),
        ])
        assert code == 0
        assert "scattered" in capsys.readouterr().out
        tree = load_tree(out)
        assert tree.n_nodes == graph.n_vertices

    @pytest.mark.parametrize("method", PARTITIONERS)
    @pytest.mark.parametrize("measure", ["degree", "kcore"])
    def test_written_tree_matches_single_process(
        self, graph, edge_file, tmp_path, capsys, measure, method
    ):
        """``degree`` takes the merged-field path, ``kcore`` the global
        field; either way the tree file equals the single-process one
        byte for byte."""
        out = tmp_path / "tree.json"
        assert main([
            "dist-build", "--edge-list", str(edge_file),
            "--scatter-dir", str(tmp_path / "shards"),
            "--measure", measure, "--partitioner", method,
            "--verify", "-o", str(out),
        ]) == 0
        assert f"2 {method} shards" in capsys.readouterr().out
        ref = tmp_path / "ref.json"
        scalars = registry.compute(measure, graph)
        save_tree(build_vertex_tree(ScalarGraph(graph, scalars)), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_dist_build_rejects_edge_measures(self, edge_file, tmp_path,
                                              capsys):
        with pytest.raises(SystemExit):
            main([
                "dist-build", "--edge-list", str(edge_file),
                "--scatter-dir", str(tmp_path / "shards"),
                "--measure", "ktruss",
            ])
        assert "vertex measures only" in capsys.readouterr().err

    def test_scatter_dir_requires_edge_list(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "dist-build", "--measure", "degree",
                "--scatter-dir", str(tmp_path / "shards"),
            ])
        assert exc.value.code == 2
        assert "--edge-list" in capsys.readouterr().err
