#!/usr/bin/env python3
"""Capture and check committed BENCH_*.json snapshots of the JSON-line
micro benches (micro_parallel / micro_rem / micro_traffic).

Usage:
    some_bench | tools/bench_snapshot.py capture --out BENCH_foo.json
    some_bench | tools/bench_snapshot.py check BENCH_foo.json
    tools/bench_snapshot.py audit [--repo DIR] [BENCH_foo.json ...]
    tools/bench_snapshot.py trend [--repo DIR] [BENCH_foo.json ...]

`capture` wraps the bench's stdout JSON lines into one committed document.
`check` re-validates a fresh run against the snapshot's *schema*, not its
timings (CI machines vary too much for absolute perf gates):

  - same bench name, same number of rows;
  - per row (matched in order): identical JSON key set and identical values
    for the identity keys (kind / scenario / round / ues / ttis);
  - every row carrying an "equal" field — the serial-vs-parallel bit-identity
    verdict computed inside the bench — must say true, in the snapshot and
    in the fresh run.

`audit` cross-checks committed snapshots against the bench sources: every
BENCH_*.json must name a bench whose bench/<name>.cpp still exists, so a
deleted or renamed bench fails CI loudly instead of leaving a stale
snapshot that "passes" because nothing runs against it anymore.

`trend` walks every committed git version of each snapshot (plus the
working-tree copy, when it differs) and prints the timing trajectory —
every *_ms field and the speedup — per bench row, so perf regressions are
visible across the snapshot history instead of only at re-capture time.
A row of the newest version with parallel_ms > serial_ms (lanes do not
pay) is marked "[parallel > serial]", and a closing line counts them; the marks
do not change the exit status. It fails loudly when any historical version
is unparseable, renames the bench, or changes a row's timing-field set
(schema drift).

Exit status is non-zero on any drift, so CI fails when a bench silently
changes shape, drops a scenario, or loses bit-identity.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

# Keys that name WHAT a row measures (as opposed to how fast it ran).
# "simd" and "workers" are deliberately absent: they record which dispatch
# level / pool width the host picked, and CI machines legitimately differ.
IDENTITY_KEYS = ("bench", "kind", "scenario", "round", "ues", "ttis",
                 "kernel", "n", "items", "hours", "cells")


def read_rows(stream, source):
    rows = []
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line or not line.startswith("{"):
            continue  # benches may interleave human-readable chatter
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as err:
            sys.exit(f"{source}:{lineno}: invalid JSON: {err}")
    if not rows:
        sys.exit(f"{source}: no JSON rows found")
    benches = {row.get("bench") for row in rows}
    if len(benches) != 1 or None in benches:
        sys.exit(f"{source}: rows must all carry the same 'bench' name, got {benches}")
    return rows


def check_equal_flags(rows, source):
    bad = [row for row in rows if "equal" in row and row["equal"] is not True]
    if bad:
        sys.exit(f"{source}: {len(bad)} row(s) report equal != true "
                 "(serial vs parallel bit-identity broken)")


def capture(args):
    rows = read_rows(sys.stdin, "<stdin>")
    check_equal_flags(rows, "<stdin>")
    doc = {"bench": rows[0]["bench"], "schema": 1, "rows": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{args.out}: captured {len(rows)} row(s) from {doc['bench']}")
    return 0


def check(args):
    with open(args.snapshot, encoding="utf-8") as fh:
        doc = json.load(fh)
    snap_rows = doc.get("rows", [])
    if not snap_rows:
        sys.exit(f"{args.snapshot}: snapshot has no rows")
    check_equal_flags(snap_rows, args.snapshot)

    fresh = read_rows(sys.stdin, "<stdin>")
    check_equal_flags(fresh, "<stdin>")
    if fresh[0]["bench"] != doc.get("bench"):
        sys.exit(f"bench name drift: snapshot {doc.get('bench')!r}, "
                 f"fresh run {fresh[0]['bench']!r}")
    if len(fresh) != len(snap_rows):
        sys.exit(f"row count drift: snapshot has {len(snap_rows)}, "
                 f"fresh run has {len(fresh)}")
    for i, (snap, run) in enumerate(zip(snap_rows, fresh)):
        if set(snap.keys()) != set(run.keys()):
            missing = sorted(set(snap.keys()) - set(run.keys()))
            added = sorted(set(run.keys()) - set(snap.keys()))
            sys.exit(f"row {i}: key-set drift (missing {missing}, added {added})")
        for key in IDENTITY_KEYS:
            if key in snap and snap[key] != run[key]:
                sys.exit(f"row {i}: identity drift on {key!r}: "
                         f"snapshot {snap[key]!r}, fresh run {run[key]!r}")
    print(f"{args.snapshot}: OK ({len(fresh)} row(s), schema matches, "
          "bit-identity holds)")
    return 0


def audit(args):
    repo = args.repo
    snapshots = args.snapshots or sorted(glob.glob(os.path.join(repo, "BENCH_*.json")))
    if not snapshots:
        sys.exit(f"audit: no BENCH_*.json snapshots found under {repo!r}")
    failures = []
    for path in snapshots:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"{path}: unreadable snapshot: {err}")
            continue
        bench = doc.get("bench")
        if not bench:
            failures.append(f"{path}: snapshot carries no 'bench' name")
            continue
        source = os.path.join(repo, "bench", f"{bench}.cpp")
        if not os.path.exists(source):
            failures.append(
                f"{path}: names bench {bench!r} but {source} does not exist — "
                "the bench was deleted or renamed; delete the stale snapshot "
                "or re-capture it from the renamed bench")
    if failures:
        sys.exit("\n".join(failures))
    print(f"audit: {len(snapshots)} snapshot(s) all map to existing bench sources")
    return 0


def row_identity(row):
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def timing_fields(row):
    return {k: v for k, v in row.items()
            if k == "speedup" or k.endswith("_ms")}


def trend(args):
    repo = args.repo
    snapshots = args.snapshots or sorted(glob.glob(os.path.join(repo, "BENCH_*.json")))
    if not snapshots:
        sys.exit(f"trend: no BENCH_*.json snapshots found under {repo!r}")
    failures = []
    slower_rows = []
    for path in snapshots:
        rel = os.path.relpath(path, repo)
        log = subprocess.run(
            ["git", "log", "--format=%h", "--reverse", "--", rel],
            cwd=repo, capture_output=True, text=True)
        if log.returncode != 0:
            failures.append(f"{rel}: git log failed: {log.stderr.strip()}")
            continue
        history = []  # (label, parsed snapshot document)
        for rev in log.stdout.split():
            show = subprocess.run(["git", "show", f"{rev}:{rel}"],
                                  cwd=repo, capture_output=True, text=True)
            if show.returncode != 0:
                # `git log -- path` also lists the commit that deleted the
                # file; a missing blob there is history, not drift.
                continue
            try:
                history.append((rev, json.loads(show.stdout)))
            except json.JSONDecodeError as err:
                failures.append(f"{rel}@{rev}: unparseable snapshot: {err}")
        try:
            with open(path, encoding="utf-8") as fh:
                worktree = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"{rel}: unreadable working-tree snapshot: {err}")
            worktree = None
        if worktree is not None and (not history or worktree != history[-1][1]):
            history.append(("worktree", worktree))
        if not history:
            failures.append(f"{rel}: no readable snapshot versions")
            continue

        bench = history[-1][1].get("bench")
        print(f"{rel}: {bench} across {len(history)} version(s)")
        series = {}  # identity tuple -> [(version label, timing fields)]
        order = []
        for label, doc in history:
            if doc.get("bench") != bench:
                failures.append(f"{rel}@{label}: bench name drift: "
                                f"{doc.get('bench')!r} vs {bench!r}")
                continue
            for row in doc.get("rows", []):
                ident = row_identity(row)
                if ident not in series:
                    series[ident] = []
                    order.append(ident)
                series[ident].append((label, timing_fields(row)))
        for ident in order:
            points = series[ident]
            if len({frozenset(fields) for _, fields in points}) != 1:
                failures.append(
                    f"{rel}: timing-field drift across versions for row "
                    + " ".join(f"{k}={v}" for k, v in ident))
                continue
            name = " ".join(f"{k}={v}" for k, v in ident if k != "bench")
            latest = points[-1][1]
            # A row the newest version no longer has is history, not a
            # current "lanes do not pay" finding.
            current = points[-1][0] == history[-1][0]
            slower = current and (latest.get("parallel_ms", 0.0)
                                  > latest.get("serial_ms", float("inf")))
            if slower:
                slower_rows.append(f"{rel}: {name or bench}")
            print(f"  {name or bench}" + ("  [parallel > serial]" if slower else ""))
            for label, fields in points:
                vals = "  ".join(f"{k}={fields[k]:.3f}" for k in sorted(fields))
                print(f"    {label:>9}  {vals}")
    print(f"{len(slower_rows)} row(s) with latest parallel_ms > serial_ms")
    for row in slower_rows:
        print(f"  {row}")
    if failures:
        sys.exit("\n".join(failures))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cap = sub.add_parser("capture", help="write a snapshot from stdin")
    cap.add_argument("--out", required=True)
    chk = sub.add_parser("check", help="validate stdin against a snapshot")
    chk.add_argument("snapshot")
    aud = sub.add_parser("audit", help="verify snapshots name existing benches")
    aud.add_argument("--repo", default=".", help="repository root (default: cwd)")
    aud.add_argument("snapshots", nargs="*", help="explicit snapshot paths")
    trd = sub.add_parser("trend", help="print timing history of snapshots")
    trd.add_argument("--repo", default=".", help="repository root (default: cwd)")
    trd.add_argument("snapshots", nargs="*", help="explicit snapshot paths")
    args = parser.parse_args(argv[1:])
    if args.command == "capture":
        return capture(args)
    if args.command == "audit":
        return audit(args)
    if args.command == "trend":
        return trend(args)
    return check(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
