#!/usr/bin/env python
"""Diff two ``bench_all.py`` ledgers and gate on perf regressions.

Compares per-bench wall times and kernel/dist speedup columns between a
baseline ledger (e.g. the committed ``BENCH_PR10.json``) and a fresh
run, prints a per-metric delta table, and exits nonzero when any
regression exceeds the tolerance:

* metrics whose name contains ``seconds`` are lower-is-better — a
  regression is ``new > old * (1 + tolerance)``;
* metrics whose name contains ``speedup`` are higher-is-better — a
  regression is ``new < old / (1 + tolerance)``;
* everything else (span rollups, counts) is printed informationally
  and never fails the gate.

Wall times are only comparable on the same machine, so ledgers carry a
host fingerprint (``env.host`` — see ``scripts/bench_all.py``).  When the
fingerprints differ (or either ledger predates them) the diff refuses
with exit code 3 unless ``--allow-cross-host`` is passed.

Exit codes: 0 ok, 1 regression past tolerance, 2 usage/IO error,
3 host-fingerprint mismatch.

Usage::

    PYTHONPATH=src python scripts/bench_diff.py BENCH_PR10.json fresh.json
    ... --tolerance 0.3 --allow-cross-host
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Informational-only span-rollup metrics would otherwise swamp the
# table; keep the top few by baseline total.
_MAX_ROLLUP_ROWS = 8


def load_ledger(path):
    """Parse a bench ledger; raises ValueError with a readable message."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {p}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p} is not valid JSON: {exc}")
    if not isinstance(data, dict) or "benches" not in data:
        raise ValueError(f"{p} does not look like a bench_all ledger")
    return data


def _host_of(ledger):
    """The host fingerprint dict, or None for pre-PR10 ledgers."""
    env = ledger.get("env") or {}
    host = env.get("host")
    return host if isinstance(host, dict) else None


def hosts_match(old, new):
    """(comparable, reason) — comparable only when both fingerprints
    exist and agree on the fields that move wall time."""
    h_old, h_new = _host_of(old), _host_of(new)
    if h_old is None or h_new is None:
        which = "baseline" if h_old is None else "new ledger"
        return False, f"{which} has no host fingerprint (env.host)"
    for field in ("cpus", "platform", "machine", "python"):
        if h_old.get(field) != h_new.get(field):
            return False, (
                f"host mismatch on {field!r}: "
                f"{h_old.get(field)!r} vs {h_new.get(field)!r}"
            )
    return True, ""


def _flatten_speedups(speedups):
    """``speedups`` sidecars are nested dicts; flatten to dotted-path →
    number so columns line up across ledgers."""
    flat = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}.{key}" if prefix else str(key), node[key])
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[prefix] = float(node)

    walk("", speedups or {})
    return flat


def _gather_metrics(ledger):
    """name → value for every gated or printed metric."""
    metrics = {}
    for name, bench in sorted((ledger.get("benches") or {}).items()):
        if isinstance(bench, dict) and "seconds" in bench:
            metrics[f"bench.{name}.seconds"] = float(bench["seconds"])
    for path, value in _flatten_speedups(ledger.get("speedups")).items():
        metrics[f"speedups.{path}"] = value
    total = ledger.get("total_seconds")
    if isinstance(total, (int, float)):
        metrics["total_seconds"] = float(total)
    return metrics


def _rollup_rows(old, new):
    """Informational span-rollup comparison (never gated): top baseline
    spans by total ms."""
    r_old = old.get("span_rollups") or {}
    r_new = new.get("span_rollups") or {}
    names = sorted(
        (n for n in r_old if n in r_new),
        key=lambda n: -(r_old[n].get("total_ms") or 0),
    )[:_MAX_ROLLUP_ROWS]
    return [
        (
            f"span.{name}.total_ms",
            float(r_old[name].get("total_ms") or 0),
            float(r_new[name].get("total_ms") or 0),
        )
        for name in names
    ]


def compare(old, new, tolerance=0.2):
    """Diff two parsed ledgers.

    Returns ``(rows, regressions)`` where each row is
    ``(name, old_value, new_value, delta_pct, verdict)`` and
    ``regressions`` lists the names that failed the gate.
    """
    m_old = _gather_metrics(old)
    m_new = _gather_metrics(new)
    rows = []
    regressions = []
    for name in sorted(set(m_old) & set(m_new)):
        v_old, v_new = m_old[name], m_new[name]
        delta = (v_new - v_old) / v_old * 100.0 if v_old else 0.0
        if "seconds" in name:
            bad = v_old > 0 and v_new > v_old * (1.0 + tolerance)
            verdict = "REGRESSION" if bad else "ok"
        elif "speedup" in name:
            bad = v_old > 0 and v_new < v_old / (1.0 + tolerance)
            verdict = "REGRESSION" if bad else "ok"
        else:
            bad = False
            verdict = "info"
        rows.append((name, v_old, v_new, delta, verdict))
        if bad:
            regressions.append(name)
    for name, v_old, v_new in _rollup_rows(old, new):
        delta = (v_new - v_old) / v_old * 100.0 if v_old else 0.0
        rows.append((name, v_old, v_new, delta, "info"))
    only_old = sorted(set(m_old) - set(m_new))
    only_new = sorted(set(m_new) - set(m_old))
    return rows, regressions, only_old, only_new


def _print_table(rows):
    if not rows:
        print("bench_diff: no shared metrics between the two ledgers")
        return
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'old':>10}  {'new':>10}  {'delta':>8}  verdict")
    for name, v_old, v_new, delta, verdict in rows:
        print(
            f"{name:<{width}}  {v_old:>10.3f}  {v_new:>10.3f}  "
            f"{delta:>+7.1f}%  {verdict}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("baseline", help="old ledger (e.g. BENCH_PR10.json)")
    parser.add_argument("candidate", help="new ledger to gate")
    parser.add_argument(
        "--tolerance", type=float, default=0.2, metavar="FRAC",
        help="allowed fractional slowdown before failing (default: 0.2)",
    )
    parser.add_argument(
        "--allow-cross-host", action="store_true",
        help="compare even when host fingerprints differ or are missing",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        print("bench_diff: --tolerance must be >= 0", file=sys.stderr)
        return 2

    try:
        old = load_ledger(args.baseline)
        new = load_ledger(args.candidate)
    except ValueError as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2

    comparable, reason = hosts_match(old, new)
    if not comparable and not args.allow_cross_host:
        print(
            f"bench_diff: refusing to compare — {reason}.  Wall times "
            "from different machines are not comparable; pass "
            "--allow-cross-host to diff anyway (informational only).",
            file=sys.stderr,
        )
        return 3
    if not comparable:
        print(f"bench_diff: WARNING — {reason}; diffing anyway "
              "(--allow-cross-host)", file=sys.stderr)

    rows, regressions, only_old, only_new = compare(
        old, new, tolerance=args.tolerance
    )
    _print_table(rows)
    if only_old:
        print(f"bench_diff: {len(only_old)} metric(s) only in baseline: "
              + ", ".join(only_old[:5])
              + ("..." if len(only_old) > 5 else ""))
    if only_new:
        print(f"bench_diff: {len(only_new)} metric(s) only in candidate: "
              + ", ".join(only_new[:5])
              + ("..." if len(only_new) > 5 else ""))
    if regressions:
        print(
            f"bench_diff: {len(regressions)} regression(s) past "
            f"{args.tolerance:.0%} tolerance: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"bench_diff: ok — no regressions past {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
