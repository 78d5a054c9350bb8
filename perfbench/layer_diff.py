#!/usr/bin/env python3
"""Compare two traced benchmark result sets layer by layer.

    python3 perfbench/run.py --all --trace 1 --out before.json   # parent commit
    python3 perfbench/run.py --all --trace 1 --out after.json    # the change
    python3 perfbench/layer_diff.py before.json after.json

Either file may also be the saved stdout of one traced single-workload run
(`run.py --workload W --trace 1 > w.txt`). For every workload present in
both, prints each per-layer metric side by side, then each layer's self time
and names the layer whose self time moved the most milliseconds: the layer
where a saving (or a slowdown) landed.
"""

import json
import sys

# Self time per layer, in ms per pass, from the per-layer metrics. Spans
# nest (epoch.run > loc.localize > lte.tof.estimate_batch; campaign.hour >
# fleet.epoch), so each layer is charged only what its children do not cover.
SELF_MS = {
    "scenario": lambda m: m["scenario.self_ms"],
    "fleet": lambda m: m["fleet.epoch_ms"],
    "core": lambda m: m["core.epoch_ms"] - m["loc.localize_ms"] - m["rem.estimate_all_ms"]
    - m["rem.plan_ms"],
    "localization": lambda m: m["loc.localize_ms"] - m["lte.tof_batch_ms"],
    "lte": lambda m: m["lte.tof_batch_ms"],
    "rem": lambda m: m["rem.estimate_all_ms"] + m["rem.plan_ms"],
    "pool": lambda m: m["pool.overhead_est_ms"],
    "snapshot": lambda m: m["ckpt.save_ms"] + m["ckpt.restore_ms"],
}


def load(path):
    """{workload: {metric: (value, unit)}} from a result set or a run's stdout."""
    text = open(path).read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        lines = text.strip().splitlines()
        env = json.loads(lines[-2])
        doc = {"workloads": {env["run"]["workload"]: {"env": env, "result": json.loads(lines[-1])}}}
    out = {}
    for w, res in doc["workloads"].items():
        if res["env"]["run"]["trace"] != 1:
            sys.exit(f"{path}: {w} is not a traced (--trace 1) result")
        out[w] = {k: (v["value"], v["unit"]) for k, v in res["result"]["metrics"].items()}
    return out


def rel(a, b):
    return (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))


def self_times(m):
    values = {k: v for k, (v, _) in m.items()}
    return {layer: f(values) for layer, f in SELF_MS.items()}


def diff(workload, before, after):
    print(f"== {workload}")
    print(f"{'metric':30}{'before':>14}{'after':>14}{'change':>10}  unit")
    for name, (a, unit) in before.items():
        if name not in after:
            continue
        b = after[name][0]
        change = f"{rel(a, b):+.1%}" if a or b else ""
        print(f"{name:30}{a:>14.6g}{b:>14.6g}{change:>10}  {unit}")
    sa, sb = self_times(before), self_times(after)
    print(f"{'layer self time':30}{'before ms':>14}{'after ms':>14}{'delta ms':>10}")
    for layer in SELF_MS:
        print(f"{layer:30}{sa[layer]:>14.2f}{sb[layer]:>14.2f}{sb[layer] - sa[layer]:>+10.2f}")
    moved = max(SELF_MS, key=lambda layer: abs(sb[layer] - sa[layer]))
    delta = sb[moved] - sa[moved]
    print(f"moved most: {moved} ({delta:+.2f} ms per pass, {rel(sa[moved], sb[moved]):+.1%})")
    return moved


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    common = [w for w in before if w in after]
    if not common:
        sys.exit("no workload in common")
    for w in common:
        diff(w, before[w], after[w])
    return 0


if __name__ == "__main__":
    sys.exit(main())
