"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py ROOT DIR MODE WORKLOAD SEED [SPANS_FILE]
  ROOT is the checkout, DIR an empty scratch directory for this repetition,
  MODE one of setup, untraced, traced, reference.

Times the host speed kernel of calibrate.py, then `import dsmkit` plus
building the PipelineConfig (setup), then the workload's command through
`dsmkit.cli.main(argv)` (wall and CPU time, less the time of the host speed
bursts calibrate.Sampler runs during it in mode "untraced", and the mean
speed those bursts saw), reads the process's peak RSS, checks the outputs
and prints one JSON line. In mode
"setup" it stops after setup; in mode "traced" it records spans and counts
around the layers' public calls and writes the spans to SPANS_FILE; in mode
"reference" it skips the comparison with the stored reference and saves what
the reference keeps of the surface to DIR/surface.npy (make_reference.py).

Before setup is timed the worker imports only modules every interpreter has
loaded already, plus the standard library's `signal` and `array` for the
sampler, which dsmkit and numpy do not import; so all of dsmkit's import
cost, numpy's included, lands in setup_s.
"""

import os
import sys
import time

from calibrate import Sampler, kernel_s
from workloads import WORKLOADS


def main() -> int:
    root, rep_dir, mode, name, seed = sys.argv[1:6]
    src = os.path.join(root, "src")
    workload = WORKLOADS[name]
    seed = int(seed)
    out_dir = os.path.join(rep_dir, "out")
    cfg_path = os.path.join(rep_dir, "workload.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(workload.config_text())

    kernel = kernel_s()  # before any dsmkit code runs, so dsmkit cannot move it
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import dsmkit
    import dsmkit.cli

    config = dsmkit.pipeline.config_from_sources(cfg_path, {"seed": seed, "out": out_dir})
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.realpath(dsmkit.__file__)) != os.path.realpath(os.path.join(src, "dsmkit")):
        raise SystemExit(f"imported dsmkit from {dsmkit.__file__}, not from {src}")

    import json

    result = {"mode": mode, "setup_s": setup_s, "kernel_s": kernel}
    if mode == "setup":
        result["env"] = blas_environment()
        print(json.dumps(result))
        return 0

    import contextlib
    import io
    import resource
    import traceback
    from pathlib import Path

    import check
    import tracing

    captured = {}
    wrappers = {}
    tracer = None
    if mode == "traced":
        spans_file = sys.argv[6]
        tracer = tracing.Tracer(run_id=os.path.basename(rep_dir))
        wrappers = tracer.wrappers()
    for key, (module, fn) in {
        "triangulate": ("dsmkit.mesh", "delaunay_triangulate"),
        "smooth": ("dsmkit.mesh", "laplacian_smooth"),
        "lift": ("dsmkit.interpolate", "lift_mesh"),
    }.items():
        wrappers.setdefault((module, fn), []).insert(0, tracing.capture(captured, key))
    absent = tracing.patch(wrappers)

    out_dir = Path(out_dir)
    argv = [workload.command, "--config", cfg_path, "--seed", str(seed), "--out", str(out_dir)]
    printed = io.StringIO()
    error = None
    # Untraced, the host's speed is sampled throughout the command; traced
    # repetitions report unscaled times, so they run without the sampler.
    sampler = Sampler() if mode == "untraced" else contextlib.nullcontext()
    with contextlib.redirect_stdout(printed), sampler:
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            code = dsmkit.cli.main(argv)
        except Exception:  # a crash is a failed repetition, reported below
            code = None
            error = traceback.format_exc(limit=5)
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
    if mode == "untraced":
        # the bursts are pure-Python work on this thread: wall and CPU alike
        spent = sampler.spent_s(w0, w0 + wall_s)
        wall_s -= spent
        cpu_s -= spent
        result.update(speed=sampler.speed(), bursts=sampler.bursts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb, exit_code=code)

    problems = []
    if error is not None:
        problems.append(f"the command raised:\n{error}")
    elif code != 0:
        problems.append(f"the command exited with code {code}")
    else:
        try:
            verdict = check.check(workload, seed, config, captured, out_dir, printed.getvalue(),
                                  compare=mode != "reference")
        except Exception:  # a missing or malformed artifact fails the check
            verdict = {"ok": False, "problems": [traceback.format_exc(limit=5)], "reference": None, "sha256": {},
                       "counts": None, "surface": None}
        problems += verdict["problems"]
        result.update(reference=verdict["reference"], sha256=verdict["sha256"], counts=verdict["counts"])
        if mode == "reference" and verdict["surface"] is not None:
            import numpy

            numpy.save(os.path.join(rep_dir, "surface.npy"), verdict["surface"])
    result["problems"] = problems

    if tracer is not None:
        bytes_written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
        result["layers"] = tracing.layer_metrics(tracer, wall_s, bytes_written, absent)
        result["absent"] = sorted(f"{m}.{f}" for m, f in absent)
        with open(spans_file, "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def blas_environment() -> dict:
    """numpy version, BLAS library and the thread count it will use."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads():
    import ctypes
    import re

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*blas\S*\.so\S*)", fh.read())))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main())
