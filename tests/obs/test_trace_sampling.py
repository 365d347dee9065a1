"""The bounded span rollup surfaces."""

import pytest

from repro.obs import trace


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
