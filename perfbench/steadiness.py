"""Run the benchmark on ten seeds in two sets and judge its spread and drift.

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --traced --out perfbench/results/<commit>.json

Every workload of BENCHMARK.json runs untraced on seeds 1-10 for its
run_seconds, once in each set. The sets are interleaved: for each seed and
workload the two runs are back to back, set 1 first on odd seeds and set 2
first on even ones, so that a slow stretch of the host hits both sets alike.

For every workload and end-to-end metric it prints the median of the per-run
values of each set, their interquartile range as a share of the median (the
spread, from `statistics.quantiles(values, n=4)`) and how far the second
set's median lies from the first's. A metric is steady when its spread is
below a third of its bound (`setup_s` is exempt from this rule) and the two
medians differ, either way, by at most the bound. `--traced` adds one traced
run per workload, on the first seed. `--out` writes every run's result and
notes (measured set-up time, host speed kernel) and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}" / "record.json").read_text())
    return {"seed": seed, "run_s": time.monotonic() - t0, **result,
            "notes": record["notes"], "environment": record["environment"]}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            order = range(SETS) if seed % 2 else reversed(range(SETS))
            for s in order:
                r = run_once(w, seed, seconds, 0)
                runs[w][s].append(r)
                print(f"set {s + 1} {w} seed {seed}: {r['run_s']:.1f} s, failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr)
    traced = {w: run_once(w, SEEDS[0], seconds, 1) for w in workloads} if args.traced else {}

    steady = True
    summary = {}
    for w in workloads:
        print(f"\n{w}")
        for m in bench["end_to_end"]:
            name = m["name"]
            sets = [[r["metrics"][name]["value"] for r in runs[w][s]] for s in range(SETS)]
            row = {
                "unit": m["unit"],
                "bound": m["bound"],
                "medians": [statistics.median(v) for v in sets],
                "spreads": [spread(v) for v in sets],
            }
            row["second_worse_by"] = worse_by(row["medians"][0], row["medians"][1], m["better"])
            row["steady"] = ((name == "setup_s" or max(row["spreads"]) < m["bound"] / 3)
                             and abs(row["second_worse_by"]) <= m["bound"])
            steady = steady and row["steady"]
            summary.setdefault(w, {})[name] = row
            print(f"  {name:<12} median {row['medians'][0]:.6g} {m['unit']:<3} "
                  f"spread {', '.join(f'{x:.3f}' for x in row['spreads'])} (bound {m['bound']}), "
                  f"second set worse by {row['second_worse_by']:+.3f}" + ("" if row["steady"] else "  NOT STEADY"))
        failed = sum(r["failed"] for s in runs[w] for r in s)
        attempted = sum(r["attempted"] for s in runs[w] for r in s)
        print(f"  error_rate   {failed / attempted:.6g} ({failed} of {attempted} repetitions failed)")
        summary[w]["error_rate"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}

    if args.out:
        environment = {k: v for k, v in runs[workloads[0]][0][0]["environment"].items() if k != "workload_seed"}
        for r in [r for sets in runs.values() for one_set in sets for r in one_set] + list(traced.values()):
            del r["environment"]
        args.out.write_text(json.dumps(
            {"environment": environment, "seeds": list(SEEDS), "seconds": seconds, "summary": summary,
             "runs": runs, "traced": traced}, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
