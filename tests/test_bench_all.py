"""scripts/bench_all.py: the host fingerprint that stamps bench ledgers
(``env.host``, which scripts/bench_diff.py fences comparisons on)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_all",
    Path(__file__).resolve().parent.parent / "scripts" / "bench_all.py",
)
bench_all = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_all)


class TestHostFingerprint:
    def test_shape_and_stability(self):
        fp = bench_all.host_fingerprint()
        assert {"cpus", "platform", "machine", "python", "compiler"} <= set(fp)
        assert fp == bench_all.host_fingerprint()  # cached
        assert fp["cpus"] >= 1
