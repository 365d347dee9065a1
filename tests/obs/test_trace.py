"""repro.obs.trace: span nesting in and across execution contexts, the
disabled no-op path, and the JSONL -> Chrome trace conversion."""

import asyncio
import json

import pytest

from repro.obs import trace
from repro.serve.workers import StageRunner


def by_name(records):
    return {r["name"]: r for r in records}


class TestNesting:
    def test_same_thread_nesting(self, ring):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        records = by_name(ring.snapshot())
        assert records["outer"]["parent"] is None
        assert records["inner"]["parent"] == records["outer"]["id"]

    def test_siblings_share_a_parent(self, ring):
        with trace.span("parent"):
            with trace.span("a"):
                pass
            with trace.span("b"):
                pass
        records = by_name(ring.snapshot())
        assert records["a"]["parent"] == records["parent"]["id"]
        assert records["b"]["parent"] == records["parent"]["id"]

    def test_exception_is_recorded_and_parent_restored(self, ring):
        with pytest.raises(RuntimeError):
            with trace.span("outer"):
                with trace.span("failing"):
                    raise RuntimeError("boom")
        records = by_name(ring.snapshot())
        assert records["failing"]["attrs"]["error"] == "RuntimeError"
        assert trace.current_span_id() is None

    def test_attrs_and_set(self, ring):
        with trace.span("s", edges=7) as sp:
            sp.set(hit=True)
        record = ring.snapshot()[0]
        assert record["attrs"] == {"edges": 7, "hit": True}


class TestAcrossThreads:
    def test_map_sync_thread_jobs_nest_under_caller(self, ring):
        async def go():
            runner = StageRunner()
            try:
                with trace.span("build") as sp:
                    await asyncio.gather(
                        *(
                            runner.run(f"k{i}", _traced_leaf, i)
                            for i in range(3)
                        )
                    )
                    # Each job ran in its own context copy: its span
                    # writes don't leak back into the caller's.
                    assert trace.current_span_id() == sp.span_id
                    return sp.span_id
            finally:
                runner.shutdown()

        build_id = asyncio.run(go())
        leaves = [r for r in ring.snapshot() if r["name"] == "leaf"]
        assert len(leaves) == 3
        assert all(r["parent"] == build_id for r in leaves)
        assert trace.current_span_id() is None

    def test_run_thread_job_nests_under_caller(self, ring):
        async def go():
            runner = StageRunner()
            try:
                with trace.span("request") as sp:
                    await runner.run("k", _traced_leaf, 0)
                    return sp.span_id
            finally:
                runner.shutdown()

        request_id = asyncio.run(go())
        leaf = by_name(ring.snapshot())["leaf"]
        assert leaf["parent"] == request_id


class TestAcrossAsyncio:
    def test_tasks_inherit_the_spawning_spans_context(self, ring):
        async def child(name):
            with trace.span(name):
                await asyncio.sleep(0)

        async def go():
            with trace.span("handler") as sp:
                await asyncio.gather(child("a"), child("b"))
                return sp.span_id

        handler_id = asyncio.run(go())
        records = by_name(ring.snapshot())
        assert records["a"]["parent"] == handler_id
        assert records["b"]["parent"] == handler_id


class TestDisabledPath:
    def test_disabled_span_is_a_shared_singleton(self):
        trace.set_enabled(False)
        a = trace.span("x", key="v")
        b = trace.span("y")
        assert a is b is trace._NOOP
        with a as sp:
            assert sp.set(status=200) is sp

    def test_disabled_spans_export_nothing(self):
        trace.set_enabled(False)
        exporter = trace.RingBufferExporter()
        trace.add_exporter(exporter)
        with trace.span("invisible"):
            pass
        assert exporter.snapshot() == []

    def test_enabled_flag_roundtrip(self):
        trace.set_enabled(True)
        assert trace.enabled()
        trace.set_enabled(False)
        assert not trace.enabled()


class TestExportFormats:
    def test_jsonl_roundtrip_and_chrome_conversion(self, tmp_path, ring):
        path = tmp_path / "trace.jsonl"
        exporter = trace.JSONLExporter(path)
        trace.add_exporter(exporter)
        with trace.span("outer", edges=9):
            with trace.span("inner"):
                pass
        exporter.close()

        records = trace.read_jsonl(path)
        assert {r["name"] for r in records} == {"outer", "inner"}
        for r in records:
            assert set(r) == {
                "name", "id", "parent", "ts_us", "dur_us",
                "pid", "tid", "attrs",
            }
            assert r["dur_us"] >= 0

        out = tmp_path / "chrome.json"
        converted = trace.chrome_trace_from_jsonl(path, out)
        loaded = json.loads(out.read_text())
        assert loaded == converted
        events = loaded["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}
        inner = next(e for e in events if e["name"] == "inner")
        outer = next(e for e in events if e["name"] == "outer")
        assert inner["args"]["parent"] == outer["args"]["span"]

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            trace.read_jsonl(path)

    def test_ring_buffer_caps_capacity(self, ring):
        small = trace.RingBufferExporter(capacity=3)
        trace.add_exporter(small)
        for i in range(5):
            with trace.span(f"s{i}"):
                pass
        assert [r["name"] for r in small.snapshot()] == ["s2", "s3", "s4"]

    def test_rollup_shape(self):
        records = [
            {"name": "stage.tree", "dur_us": 1000.0},
            {"name": "stage.tree", "dur_us": 3000.0},
            {"name": "cache.get", "dur_us": 10.0},
        ]
        roll = trace.rollup(records)
        assert set(roll) == {"stage.tree", "cache.get"}
        tree = roll["stage.tree"]
        assert tree["count"] == 2
        assert tree["total_ms"] == 4.0
        assert tree["max_ms"] == 3.0
        assert set(tree) == {"count", "p50_ms", "p95_ms", "max_ms", "total_ms"}


# -- module-level helpers --------------------------------------------------
def _traced_leaf(i):
    with trace.span("leaf", i=i):
        return i * 2
