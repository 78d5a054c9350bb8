#!/usr/bin/env python3
"""Read and validate a SkyRAN telemetry JSON-lines file (docs/OBSERVABILITY.md).

Usage:
    tools/metrics_report.py metrics.jsonl            # validate + summary
    tools/metrics_report.py metrics.jsonl --spans    # also list span totals

Exits non-zero if any line is not valid JSON or violates the schema, so it
doubles as the checked-in parser for the exporter's output (used by CI and
by hand on any `SKYRAN_METRICS_OUT` dump).
"""
import json
import sys
from collections import defaultdict

REQUIRED_FIELDS = {
    "meta": {"schema", "spans", "spans_dropped"},
    "counter": {"name", "value"},
    "gauge": {"name", "value"},
    "histogram": {"name", "count", "sum", "min", "max", "mean", "p50", "p90", "p99"},
    "span": {"name", "epoch", "depth", "thread", "start_us", "dur_us"},
}


def load(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                sys.exit(f"{path}:{lineno}: invalid JSON: {err}")
            kind = rec.get("type")
            if kind not in REQUIRED_FIELDS:
                sys.exit(f"{path}:{lineno}: unknown record type {kind!r}")
            missing = REQUIRED_FIELDS[kind] - rec.keys()
            if missing:
                sys.exit(f"{path}:{lineno}: {kind} record missing {sorted(missing)}")
            records.append(rec)
    if not records or records[0]["type"] != "meta":
        sys.exit(f"{path}: first line must be the meta record")
    return records


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        sys.exit(__doc__)
    path = argv[1]
    show_spans = "--spans" in argv[2:]
    records = load(path)

    by_type = defaultdict(list)
    for rec in records:
        by_type[rec["type"]].append(rec)

    meta = by_type["meta"][0]
    print(f"schema v{meta['schema']}: "
          f"{len(by_type['counter'])} counters, {len(by_type['gauge'])} gauges, "
          f"{len(by_type['histogram'])} histograms, {len(by_type['span'])} spans"
          + (f" ({meta['spans_dropped']} dropped)" if meta["spans_dropped"] else ""))

    for rec in by_type["counter"]:
        print(f"  counter   {rec['name']:<40} {rec['value']}")
    for rec in by_type["gauge"]:
        print(f"  gauge     {rec['name']:<40} {rec['value']:.4g}")
    for rec in by_type["histogram"]:
        print(f"  histogram {rec['name']:<40} n={rec['count']} mean={rec['mean']:.4g} "
              f"p50={rec['p50']:.4g} p90={rec['p90']:.4g} max={rec['max']:.4g}")

    # Fault-injection roll-up: every fault.* counter plus the degraded-path
    # quality gates, grouped so a chaos run's injected-vs-degraded story is
    # readable at a glance (names: docs/OBSERVABILITY.md).
    fault_counters = [rec for rec in by_type["counter"]
                      if rec["name"].startswith("fault.")
                      or rec["name"] in ("loc.tof.gated_low_quality",
                                         "lte.tof.degenerate_window")]
    if fault_counters:
        total = sum(rec["value"] for rec in fault_counters)
        print(f"fault injection summary ({total} events):")
        for rec in sorted(fault_counters, key=lambda r: (-r["value"], r["name"])):
            print(f"  fault     {rec['name']:<40} {rec['value']}")
        degraded = [rec for rec in by_type["gauge"] if rec["name"] == "epoch.degraded"]
        if degraded:
            state = "degraded" if degraded[-1]["value"] else "clean"
            print(f"  fault     {'epoch.degraded (last epoch)':<40} {state}")

    if show_spans:
        totals = defaultdict(lambda: [0, 0.0])
        for rec in by_type["span"]:
            totals[rec["name"]][0] += 1
            totals[rec["name"]][1] += rec["dur_us"]
        print("span totals (by total time):")
        for name, (count, us) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            print(f"  span      {name:<40} n={count} total={us / 1e3:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
