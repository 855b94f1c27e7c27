"""dsmkit benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload demo_uk --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Each repetition runs in a fresh interpreter (worker.py),
one at a time. With `--trace 0` repetitions run untraced and the last line of
stdout carries the end-to-end metrics (medians over the repetitions); with
`--trace 1` untraced and traced repetitions alternate and it carries the
per-layer metrics of the median traced repetition plus the tracing overhead.
Untraced times are scaled to the nominal host speed of calibrate.py; the
measured values are kept in the record. The lines before the last print every
metric by name with its unit, and the measured times. A full record
(environment, every repetition, check results) and the spans of the reported
traced repetition go to `.perfbench_out/<workload>-seed<n>-trace<k>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # extra fresh-interpreter set-ups per untraced run
MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
MIN_REPS_TRACED = 2  # of each kind in a traced run
DEADLINE_S = 165.0  # the whole run ends well inside 180 s


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0

    def rep(self, mode: str) -> dict:
        """Run one worker; a crash, timeout or bad output is a failed rep."""
        self.count += 1
        rep_dir = self.work / f"rep{self.count:03d}"
        rep_dir.mkdir()
        argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(rep_dir), mode, self.workload, str(self.seed)]
        spans = self.work / f"spans-rep{self.count:03d}.jsonl"
        if mode == "traced":
            argv.append(str(spans))
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            result = {"mode": mode, "problems": [f"timed out after {timeout:.0f} s"]}
        else:
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"mode": mode, "problems": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
        shutil.rmtree(rep_dir)
        result["rep"] = self.count
        result["elapsed_s"] = time.monotonic() - t0
        result["spans_file"] = spans.name if mode == "traced" else None
        result["ok"] = not result["problems"] if "problems" in result else True
        return result


def src_stats() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_files": len(files), "src_sha256": digest.hexdigest()}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int, worker_env: dict) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        **worker_env,
        "workload_seed": seed,
        "git_commit": git_commit(),
        **src_stats(),
    }


def median_rep(reps: list) -> dict:
    """The repetition with the median wall time (lower median)."""
    ordered = sorted(reps, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dsmkit" / "__init__.py").is_file():
        print(f"error: no dsmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    start = time.monotonic()
    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, start + DEADLINE_S)

    # The first set-up fills the bytecode cache and is not counted.
    warm = runner.rep("setup")
    if not warm["ok"]:
        print(f"error: the worker cannot set up: {warm['problems']}", file=sys.stderr)
        return 1
    modes = ("untraced", "traced") if args.trace else ("untraced",)
    setups = [] if args.trace else [runner.rep("setup") for _ in range(SETUP_PROBES)]

    least = MIN_REPS_TRACED if args.trace else MIN_REPS
    reps = []
    timed_from = time.monotonic()
    counts = None  # the count metrics of the first traced repetition
    while time.monotonic() < start + DEADLINE_S - 5:
        r = runner.rep(modes[len(reps) % len(modes)])
        reps.append(r)
        if r["ok"] and "layers" in r:
            mine = {k: v for k, v in r["layers"].items() if units.get(k) == "count"}
            counts = counts or mine
            if mine != counts:
                r["ok"] = False
                r["problems"].append(f"count metrics {mine} differ from the first traced repetition's {counts}")
        enough = all(sum(r["mode"] == m for r in reps) >= least for m in modes)
        # stop once one more repetition would overrun --seconds by over half its length
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if enough and time.monotonic() - timed_from + typical / 2 >= args.seconds:
            break

    good = [r for r in reps if r["ok"]]
    failed = len(reps) - len(good)
    for r in reps:
        if not r["ok"]:
            print(f"rep {r['rep']} ({r['mode']}) failed: {r['problems']}", file=sys.stderr)
    # Failed repetitions still time the program when nothing else does.
    by_mode = {m: [r for r in good if r["mode"] == m] or [r for r in reps if r["mode"] == m and "wall_s" in r]
               for m in modes}
    if not all(by_mode.values()) or (args.trace and not all("layers" in r for r in by_mode["traced"])):
        print("error: no repetition ran to the end in some mode", file=sys.stderr)
        return 1

    untraced = by_mode["untraced"]
    metrics = {}
    notes = {}
    if args.trace:
        traced = by_mode["traced"]
        chosen = median_rep(traced)
        for name, value in chosen["layers"].items():
            metrics[name] = {"value": value, "unit": units[name]}
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
        notes = {"traced_reps": len(traced), "untraced_reps": len(untraced)}
        shutil.move(work / chosen["spans_file"], work / "spans.jsonl")
        for r in reps:
            if r["spans_file"]:
                (work / r["spans_file"]).unlink(missing_ok=True)
    else:
        # Set-up follows its kernel within a fraction of a second, so each
        # set-up is scaled by its own kernel. The command runs for seconds,
        # over which the host changes speed, so each repetition's command
        # times are scaled by the mean speed the sampler saw during it.
        setup_reps = [r for r in setups if r["ok"]] + untraced
        measured = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in setup_reps),
        }
        for name, value, n in (
            ("wall_s", statistics.median(r["wall_s"] * r["speed"] for r in untraced), len(untraced)),
            ("cpu_s", statistics.median(r["cpu_s"] * r["speed"] for r in untraced), len(untraced)),
            ("setup_s", statistics.median(r["setup_s"] * NOMINAL_S / r["kernel_s"] for r in setup_reps),
             len(setup_reps)),
            ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in untraced), len(untraced)),
        ):
            metrics[name] = {"value": value, "unit": units[name]}
            notes[f"{name}_n"] = n
        notes.update({f"measured_{k}": v for k, v in measured.items()})
        notes["speed"] = statistics.median(r["speed"] for r in untraced)
    notes["kernel_s"] = statistics.median(r["kernel_s"] for r in reps if "kernel_s" in r)

    checked = [r for r in reps if "reference" in r]
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, warm.get("env", {})),
        "metrics": metrics,
        "notes": notes,
        "attempted": len(reps),
        "failed": failed,
        "error_rate": failed / len(reps),
        "reference_compared": bool(checked) and all(r["reference"] is not None for r in checked),
        "sha256_identical_to_reference": bool(checked) and all(
            r["reference"] is not None and r["reference"]["sha256_identical"] for r in checked),
        "setups": setups,
        "reps": reps,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(reps)} repetitions in {time.monotonic() - start:.1f} s")
    for name, m in metrics.items():
        n = notes.get(f"{name}_n")
        measured = notes.get(f"measured_{name}")
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6}" + (f" median of {n}" if n else "")
              + (f", measured {measured:.6g} s" if measured is not None else ""))
    print(f"  {'host speed kernel':<36} {notes['kernel_s']:>14.6g} s      median; nominal {NOMINAL_S} s")
    if "speed" in notes:
        print(f"  {'host speed during the command':<36} {notes['speed']:>14.6g}        median; nominal 1")
    print(f"  {'error_rate':<36} {failed / len(reps):>14.6g} ratio  ({failed} of {len(reps)} failed)")
    print(f"  reference compared: {record['reference_compared']}, "
          f"artifacts byte-identical to reference: {record['sha256_identical_to_reference']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
