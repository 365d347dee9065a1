"""Head-based span sampling and the bounded rollup surfaces."""

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def restore_sample_rate():
    prev = trace.sample_rate()
    yield
    trace.set_sample_rate(prev)


class TestHeadSampling:
    def test_rate_zero_drops_every_root(self, ring):
        trace.set_sample_rate(0.0, seed=1)
        for __ in range(20):
            with trace.span("root"):
                with trace.span("child"):
                    pass
        assert ring.snapshot() == []

    def test_rate_one_keeps_everything(self, ring):
        trace.set_sample_rate(1.0)
        for __ in range(5):
            with trace.span("root"):
                pass
        assert len(ring.snapshot()) == 5

    def test_traces_are_kept_or_dropped_whole(self, ring):
        """No partial subtrees: a kept root keeps all descendants, a
        dropped root drops all of them."""
        trace.set_sample_rate(0.5, seed=42)
        for __ in range(40):
            with trace.span("root"):
                with trace.span("child"):
                    with trace.span("grandchild"):
                        pass
        records = ring.snapshot()
        roots = [r for r in records if r["name"] == "root"]
        assert 0 < len(roots) < 40  # actually sampled
        by_name = {}
        for r in records:
            by_name.setdefault(r["name"], []).append(r)
        assert len(by_name["child"]) == len(roots)
        assert len(by_name["grandchild"]) == len(roots)
        ids = {r["id"] for r in records}
        for r in records:
            if r["parent"] is not None:
                assert r["parent"] in ids, "orphan span leaked through"

    def test_sampled_out_spans_take_noop_path(self, ring):
        """Descendants of a dropped root get the shared no-op object —
        the whole per-span cost of a dropped trace is one dict lookup."""
        trace.set_sample_rate(0.0, seed=1)
        with trace.span("root"):
            child = trace.span("child")
            assert child is trace._NOOP

    def test_decision_only_at_roots(self, ring):
        """A kept trace never re-draws at child spans, so deep trees
        can't be thinned from the inside."""
        trace.set_sample_rate(0.5, seed=7)
        kept = 0
        for __ in range(30):
            with trace.span("root"):
                for __ in range(10):
                    with trace.span("leaf"):
                        pass
        records = ring.snapshot()
        roots = sum(1 for r in records if r["name"] == "root")
        leaves = sum(1 for r in records if r["name"] == "leaf")
        assert leaves == roots * 10

    def test_env_var_sets_rate_at_import(self):
        import subprocess
        import sys

        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import trace; print(trace.sample_rate())"],
            env={"REPRO_TRACE_SAMPLE": "0.1", "PYTHONPATH": src,
                 "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0.1"

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            trace.set_sample_rate(1.5)
        with pytest.raises(ValueError):
            trace.set_sample_rate(-0.1)


class TestRollupTopN:
    def _records(self):
        records = []
        for name, durs in (
            ("hot", [50.0, 60.0]), ("warm", [10.0]), ("cold", [1.0]),
        ):
            for d in durs:
                records.append({"name": name, "dur_us": d * 1000})
        return records

    def test_top_keeps_hottest_by_total(self):
        out = trace.rollup(self._records(), top=2)
        assert list(out) == ["hot", "warm"]
        assert out["hot"]["total_ms"] == pytest.approx(110.0)

    def test_no_top_keeps_all_sorted_by_name(self):
        out = trace.rollup(self._records())
        assert list(out) == ["cold", "hot", "warm"]
