"""Write the reference outputs the benchmark's check compares against.

    python3 perfbench/make_reference.py

Run it only on the commit that defines the outputs: the reference is how
later changes prove they still compute the same surface. For every workload
and seeds 0-10 it runs one repetition through worker.py, exactly as the
benchmark does, and stores the mesh counts, the artifacts' sha256s and, at
full precision, the lifted z of every vertex (or, for the mesh-only workload,
the planar vertex set) in `perfbench/reference/`. A workload whose outputs do
not change with the seed is stored once, under "any".
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import REFERENCE_DIR  # noqa: E402
from run import git_commit, src_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(11)


def outputs(name: str, seed: int, work: Path):
    """(counts and sha256s, surface) of one repetition of a workload."""
    rep_dir = work / f"{name}-seed{seed}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(rep_dir), "reference", name, str(seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{name} seed {seed}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    if result["problems"]:
        raise SystemExit(f"{name} seed {seed}: {result['problems']}")
    values = np.load(rep_dir / "surface.npy")
    shutil.rmtree(rep_dir)
    nv, nt = result["counts"]
    return {"vertices": nv, "triangles": nt, "sha256": result["sha256"]}, values


def main() -> int:
    work = ROOT / ".perfbench_out" / "reference-work"
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        first = outputs(name, SEEDS[0], work)
        second = outputs(name, SEEDS[1], work)
        seed_dependent = not (first[0] == second[0] and np.array_equal(first[1], second[1]))
        results = {"any": first}
        if seed_dependent:
            results = {str(SEEDS[0]): first, str(SEEDS[1]): second}
            for seed in SEEDS[2:]:
                results[str(seed)] = outputs(name, seed, work)
        meta = {
            "workload": name,
            "made_from": {"git_commit": git_commit(), **src_stats()},
            "seed_dependent": seed_dependent,
            "seeds": {k: m for k, (m, _) in results.items()},
        }
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(meta, indent=1) + "\n")
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **{f"seed_{k}": v for k, (_, v) in results.items()})
        print(f"{name}: {len(results)} reference(s), seed dependent: {seed_dependent}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
