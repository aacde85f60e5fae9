#!/usr/bin/env python3
"""Keeps the committed end-to-end benchmark trajectory, BENCH_e2e.json.

Usage, from the repository root:

    python3 tools/bench_trajectory.py record --label "what changed"
    python3 tools/bench_trajectory.py --compare
    python3 tools/bench_trajectory.py --check

`record` runs `perfbench/run.py --trace 0` for each workload in
BENCHMARK.json (batch_heavy, stream, fed16) at seed 1 for its
`run_seconds`, and appends one record: the git sha and whether src/ or
perfbench/ differ from it, perfbench's source_sha, ISA,
hardware_concurrency, seed, seconds and every metric of the JSON
result. `--root` measures another checkout of the repository (for
example the parent commit) and still appends to this repository's file.

`--compare` prints each metric that the last record and the one before
it both hold, as a ratio, and names any (workload, metric) pair that
only one of them holds. It exits 1 if the two records differ in seed,
seconds or hardware_concurrency (they are not like for like), or if a
metric is worse by more than its BENCHMARK.json end-to-end bound.

`--check` validates each record against its own workloads and metrics:
well-formed keys, a correct run with no failures, and every metric a
positive finite number (exit 1 on the first problem). It does not
require the workloads or metrics that BENCHMARK.json lists now, so a
later benchmark change leaves the older records valid. Standard library
only.
"""
import argparse
import datetime
import json
import math
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_FILE = ROOT / "BENCH_e2e.json"
SCHEMA = 1
SEED = 1
RECORD_KEYS = {"label", "recorded", "git_sha", "git_dirty", "source_sha",
               "isa", "hardware_concurrency", "seed", "seconds",
               "workloads"}
RUN_KEYS = {"correct", "attempted", "failed", "metrics"}
SHA = {"git_sha": re.compile(r"[0-9a-f]{40}|none"),
       "source_sha": re.compile(r"[0-9a-f]{64}")}


def load_benchmark():
    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    return spec, workloads, {m["name"]: m for m in spec["end_to_end"]}


def git(root, *args):
    try:
        out = subprocess.run(["git", "-C", str(root), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def run_workload(root, workload, seconds):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    print(f"bench_trajectory: {' '.join(cmd[1:])}", file=sys.stderr)
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    if proc.returncode != 0 or env is None or not lines:
        sys.exit(f"bench_trajectory: {workload} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return env, result


def record(args):
    spec, workloads, _ = load_benchmark()
    seconds = spec["run_seconds"]
    root = pathlib.Path(args.root).resolve()
    runs, env = {}, None
    for w in workloads:
        env, runs[w] = run_workload(root, w, seconds)
    dirty = git(root, "status", "--porcelain", "--", "src", "perfbench")
    rec = {
        "label": args.label,
        "recorded": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": env["git_sha"],
        "git_dirty": bool(dirty),
        "source_sha": env["source_sha"],
        "isa": env["isa"],
        "hardware_concurrency": env["hardware_concurrency"],
        "seed": SEED,
        "seconds": seconds,
        "workloads": runs,
    }
    path = pathlib.Path(args.file)
    data = (json.loads(path.read_text()) if path.exists()
            else {"schema": SCHEMA, "records": []})
    data["records"].append(rec)
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"bench_trajectory: appended record {len(data['records'])} "
          f"to {path}")


def worse_by(metric, ratio):
    """How much worse `ratio` (new / old) is, as a fraction of old."""
    return 1 - ratio if metric["better"] == "higher" else ratio - 1


def compare(args):
    _, _, e2e = load_benchmark()
    records = json.loads(pathlib.Path(args.file).read_text())["records"]
    if len(records) < 2:
        sys.exit("bench_trajectory: --compare needs two records")
    old, new = records[-2], records[-1]
    print(f"{new['label']} ({new['source_sha'][:12]}) vs "
          f"{old['label']} ({old['source_sha'][:12]})")
    unlike = [k for k in ("seed", "seconds", "hardware_concurrency")
              if old[k] != new[k]]
    if unlike:
        sys.exit("bench_trajectory: the records are not like for like: " +
                 ", ".join(f"{k} {old[k]} -> {new[k]}" for k in unlike))
    flagged = 0
    for w in sorted(set(old["workloads"]) | set(new["workloads"])):
        a_run = old["workloads"].get(w, {}).get("metrics", {})
        b_run = new["workloads"].get(w, {}).get("metrics", {})
        for name in sorted(set(a_run) | set(b_run)):
            if name not in a_run or name not in b_run:
                side = "last" if name in b_run else "previous"
                print(f"  {w:12} {name:15} only in the {side} record")
                continue
            a, b = a_run[name], b_run[name]
            ratio = b / a
            metric = e2e.get(name)
            out = (metric is not None and
                   worse_by(metric, ratio) > metric["bound"])
            flagged += out
            print(f"  {w:12} {name:15} {a:12.6g} -> {b:12.6g}  "
                  f"x{ratio:.3f}{'  OUTSIDE BOUND' if out else ''}")
    sys.exit(1 if flagged else 0)


def check(args):
    try:
        data = json.loads(pathlib.Path(args.file).read_text())
    except (OSError, ValueError) as e:
        sys.exit(f"bench_trajectory: cannot read {args.file}: {e}")

    def bad(where, what):
        sys.exit(f"bench_trajectory: {args.file}: {where}: {what}")

    if set(data) != {"schema", "records"} or data["schema"] != SCHEMA:
        bad("top level", f"want schema {SCHEMA} and records")
    if not isinstance(data["records"], list) or not data["records"]:
        bad("records", "want a non-empty list")
    last_time = ""
    for i, rec in enumerate(data["records"]):
        where = f"record {i + 1}"
        if not isinstance(rec, dict) or set(rec) != RECORD_KEYS:
            bad(where, f"want keys {sorted(RECORD_KEYS)}")
        for key, pattern in SHA.items():
            if not (isinstance(rec[key], str) and pattern.fullmatch(rec[key])):
                bad(where, f"malformed {key}")
        if not isinstance(rec["label"], str) or not rec["label"]:
            bad(where, "empty label")
        if not isinstance(rec["recorded"], str) or rec["recorded"] < last_time:
            bad(where, "recorded is not a time after the record above it")
        last_time = rec["recorded"]
        if not isinstance(rec["git_dirty"], bool):
            bad(where, "git_dirty is not a boolean")
        for key in ("hardware_concurrency", "seed", "seconds"):
            if not (isinstance(rec[key], int) and
                    not isinstance(rec[key], bool) and rec[key] >= 0):
                bad(where, f"{key} is not a count")
        if rec["seconds"] < 1:
            bad(where, "seconds is below 1")
        if not isinstance(rec["workloads"], dict) or not rec["workloads"]:
            bad(where, "want a non-empty map of workloads")
        for w, run in rec["workloads"].items():
            if (not isinstance(run, dict) or set(run) != RUN_KEYS
                    or run["correct"] is not True):
                bad(f"{where} {w}", "want a correct perfbench result")
            if run["failed"] != 0 or run["attempted"] < 1:
                bad(f"{where} {w}", "failed or no runs")
            if not isinstance(run["metrics"], dict) or not run["metrics"]:
                bad(f"{where} {w}", "want a non-empty map of metrics")
            for name, v in run["metrics"].items():
                if not (isinstance(v, (int, float)) and
                        not isinstance(v, bool) and math.isfinite(v)
                        and v > 0):
                    bad(f"{where} {w}", f"{name} is not a positive number")
    print(f"bench_trajectory: {args.file}: {len(data['records'])} records "
          "ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=("record",))
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--file", default=str(DEFAULT_FILE))
    parser.add_argument("--root", default=str(ROOT),
                        help="checkout to measure (record)")
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    if [bool(args.command), args.compare, args.check].count(True) != 1:
        parser.error("give exactly one of record, --compare, --check")
    if args.command == "record":
        if not args.label:
            parser.error("record needs --label")
        record(args)
    elif args.compare:
        compare(args)
    else:
        check(args)


if __name__ == "__main__":
    main()
