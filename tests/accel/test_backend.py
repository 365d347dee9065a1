"""Tier selection: global setting, env default, resolution; no CLI flag
and no per-call keyword."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import accel
from repro.accel import native
from repro.cli import build_parser, main
from repro.engine import registry

from oracles import oracle_vertex_tree


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = accel.get_backend()
    yield
    accel.set_backend(previous)


class TestSetting:
    def test_default_mode_is_valid(self):
        assert accel.BACKENDS == ("vector", "native")
        assert accel.get_backend() in accel.BACKENDS
        # Without REPRO_ACCEL a fresh process starts in ``native``.
        env = {k: v for k, v in os.environ.items() if k != "REPRO_ACCEL"}
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro import accel; print(accel.get_backend())"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "native"

    def test_set_and_get(self):
        accel.set_backend("vector")
        assert accel.get_backend() == "vector"

    def test_invalid_rejected(self):
        for mode in ("naive", "auto", "vectr", "cuda", ""):
            with pytest.raises(ValueError, match="backend must be one of"):
                accel.set_backend(mode)

    def test_using_scopes_and_restores(self):
        accel.set_backend("native")
        with accel.using("vector"):
            assert accel.get_backend() == "vector"
        assert accel.get_backend() == "native"

    def test_using_restores_on_error(self):
        accel.set_backend("native")
        with pytest.raises(RuntimeError):
            with accel.using("vector"):
                raise RuntimeError("boom")
        assert accel.get_backend() == "native"

    def test_env_init_accepts_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL", "vector")
        accel._init_from_env()
        assert accel.get_backend() == "vector"

    def test_env_init_accepts_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL", "native")
        accel._init_from_env()
        assert accel.get_backend() == "native"

    def test_env_init_rejects_typos(self, monkeypatch):
        """A typo or a removed mode must fail loudly, not silently fall
        back to the default — otherwise a run that pins a tier would
        test nothing."""
        for mode in ("naive", "auto", "vectr"):
            monkeypatch.setenv("REPRO_ACCEL", mode)
            with pytest.raises(ValueError, match="REPRO_ACCEL must be one of"):
                accel._init_from_env()


class TestResolve:
    def test_vector_mode_never_resolves_native(self):
        accel.set_backend("vector")
        assert accel.resolve(native=True) == "vector"
        assert accel.resolve() == "vector"

    def test_native_mode_follows_the_toolchain(self):
        accel.set_backend("native")
        expected = "native" if native.available() else "vector"
        assert accel.resolve(native=True) == expected
        assert accel.resolve() == "vector"

    def test_forced_ignores_size(self, monkeypatch):
        """No size threshold: a 3-edge build and a 3,000-edge build take
        the same tier — the C merge scan under ``native`` (when it
        loads), never under ``vector``."""
        from repro.core import ScalarGraph, build_vertex_tree
        from repro.graph.generators import erdos_renyi

        calls = []
        real = native.merge_scan

        def spy(n_items, cur, prev):
            calls.append(len(cur))
            return real(n_items, cur, prev)

        monkeypatch.setattr(native, "merge_scan", spy)
        fields = [
            ScalarGraph(g, np.arange(g.n_vertices, dtype=np.float64) % 7)
            for g in (erdos_renyi(4, 3, seed=1), erdos_renyi(1000, 3000, seed=2))
        ]
        for tier in ("vector", "native"):
            calls.clear()
            with accel.using(tier):
                trees = [build_vertex_tree(f) for f in fields]
            used = tier == "native" and native.available()
            assert calls == ([3, 3000] if used else [])
            for tree, field in zip(trees, fields):
                assert np.array_equal(
                    tree.parent, oracle_vertex_tree(field).parent
                )

    def test_invalid_override_rejected(self):
        """A call site can no longer override the mode or pass a size:
        the mode is the process-global one."""
        with pytest.raises(TypeError):
            accel.resolve(size=10, threshold=100)
        with pytest.raises(TypeError):
            accel.resolve("vector")


class TestRegistrySpecs:
    def test_register_rejects_bad_backend(self):
        """Measures have one implementation each: the ``backend``
        keyword is gone from registration and from ``compute``."""
        with pytest.raises(TypeError):
            registry.register_measure(
                "bogus-backend-measure", kind="vertex", backend="accel"
            )(lambda graph: None)
        from repro.graph.generators import erdos_renyi

        with pytest.raises(TypeError):
            registry.compute("kcore", erdos_renyi(30, 60, seed=3),
                             backend="vector")


class TestCLI:
    def test_no_subcommand_accepts_accel(self, capsys):
        parser = build_parser()
        for command in (
            ["terrain", "--dataset", "amazon"],
            ["peaks", "--dataset", "amazon"],
            ["treemap", "--dataset", "amazon"],
            ["profile", "--dataset", "amazon"],
            ["correlate", "degree", "kcore", "--dataset", "amazon"],
            ["stream", "--log", "x", "--dataset", "amazon"],
            ["evolve", "--log", "x"], ["serve"],
        ):
            parser.parse_args(command)
            with pytest.raises(SystemExit):
                parser.parse_args(command + ["--accel", "vector"])
            err = capsys.readouterr().err
            assert "unrecognized arguments: --accel" in err, command

    def test_no_flag_keeps_global_backend(self, tmp_path):
        edges = tmp_path / "tiny.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        accel.set_backend("vector")
        assert main([
            "peaks", "--edge-list", str(edges), "--measure", "degree",
        ]) == 0
        assert accel.get_backend() == "vector"
