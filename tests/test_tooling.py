"""The benchmark's tracer (perfbench/tracing.py) wraps dsmkit functions by
module and name, and its hooks read sizes off their arguments and results.
These tests read its target lists and hooks; they change neither. The last
four run in a subprocess: one checks that the tracer still sees the Delaunay
engine's exact fallbacks and its public predicates, the others guard what a
benchmarked process imports."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dsmkit.acquisition import (
    ScanSpec,
    clip_to_region,
    convert_pointset,
    scan_grid,
    synthetic_terrain,
)
from dsmkit.geodesy import GeoPoint
from dsmkit.geometry import Rect
from dsmkit.variogram import empirical_variogram


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

# the first positional parameter of each function whose calls the hooks read
FIRST_PARAMETER = {
    ("dsmkit.acquisition", "scan_grid"): "provider",
    ("dsmkit.acquisition", "clip_to_region"): "ps",
    ("dsmkit.acquisition", "convert_pointset"): "ps",
    ("dsmkit.geodesy", "wgs84_to_utm"): "p",
    ("dsmkit.variogram", "empirical_variogram"): "samples",
}


@pytest.mark.parametrize(
    "module, name", sorted({(m, f) for _, m, f in tracing.SPANS + tracing.COUNTERS})
)
def test_every_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("target, parameter", sorted(FIRST_PARAMETER.items()))
def test_hooked_functions_keep_their_first_parameter(target, parameter):
    module, name = target
    fn = getattr(importlib.import_module(module), name)
    assert next(iter(inspect.signature(fn).parameters)) == parameter


def test_hooks_read_sizes_off_real_calls():
    region = Rect(7.3368, 48.7224, 7.3404, 48.726)
    hill = synthetic_terrain(
        "gaussian_hill", GeoPoint(48.7242, 7.3386), amplitude=60.0, sigma=80.0
    )
    scanned = scan_grid(hill, ScanSpec(region.expanded(0.1), 12, 18))
    clipped = clip_to_region(scanned, region)
    utm = convert_pointset(clipped, "utm")
    ev = empirical_variogram(utm, 200.0, 10)

    notes = Counter()
    tracing._after_scan(notes, (hill,), scanned)
    tracing._after_clip(notes, (scanned, region), clipped)
    tracing._after_estimate(notes, (utm, 200.0, 10), ev)
    n = len(utm)
    assert notes["scan_nodes"] == 12 * 18
    assert notes["clip_in"] == 12 * 18 and notes["clip_kept"] == len(clipped) == n
    assert notes["pairs_scanned"] == n * (n - 1) // 2
    assert 0 < notes["pairs_binned"] <= notes["pairs_scanned"]


def _run_python(code, cwd):
    import dsmkit

    src = os.path.dirname(os.path.dirname(dsmkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd
    )


def test_tracer_counts_every_exact_fallback_of_the_engine(tmp_path):
    # the engine calls _orient_exact and _incircle_exact through module
    # globals, so the tracer's patched wrappers see each call. The grid's
    # points are listed in reverse, which is no lattice start, so the sweep
    # makes exact orientation tests too. The public predicates, on a
    # collinear triple and a cocircular quad, are counted once each, and so
    # is the exact fallback each of them takes.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import numpy as np\n"
        "import tracing\n"
        "from dsmkit import delaunay\n"
        "tracer = tracing.Tracer('t')\n"
        "assert not tracing.patch(tracer.wrappers())\n"
        "xs, ys = np.meshgrid(np.arange(8.0), np.arange(6.0))\n"
        "_, stats = delaunay.triangulate(np.column_stack([xs.ravel(), ys.ravel()])[::-1])\n"
        "counts = tracer.counts\n"
        "print(counts['delaunay.exact_orient_fallbacks'], stats['exact_orient'],\n"
        "      counts['delaunay.exact_incircle_fallbacks'], stats['exact_incircle'])\n"
        "counts.clear()\n"
        "assert delaunay.orient2d(0.0, 0.0, 1.0, 1.0, 3.0, 3.0) == 0\n"
        "assert delaunay.incircle(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0) == 0\n"
        "print(*(counts['delaunay.' + k] for k in ('orient_calls', 'incircle_calls',\n"
        "      'exact_orient_fallbacks', 'exact_incircle_fallbacks')))\n"
    )
    result = _run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    engine, public = result.stdout.splitlines()
    traced_orient, orient, traced_incircle, incircle = map(int, engine.split())
    assert traced_orient == orient > 0
    assert traced_incircle == incircle > 0
    assert public.split() == ["1", "1", "1", "1"]


def test_demo_run_and_compare_never_import_numpy_ma(tmp_path):
    # np.unique's first 1-D call imports numpy.ma, about 16 ms of every
    # process that reaches it; the demo's run and compare must not
    code = (
        "import sys\n"
        "from dsmkit.cli import main\n"
        f"assert main(['run', '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        f"assert main(['compare', '--out', {str(tmp_path / 'compare')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = _run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_demo_run_never_imports_numpy_random(tmp_path):
    # the jittered seeds are numpy's PCG64 stream drawn by dsmkit.mesh, so
    # the default run no longer pays numpy.random's import (about 15 ms, 2 MB)
    code = (
        "import sys\n"
        "from dsmkit.cli import main\n"
        f"assert main(['run', '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    result = _run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_grid_mesh_never_imports_numpy_random(tmp_path):
    # the triangulation's order is a sort by distance, not a random shuffle,
    # and grid seeding draws no jitter: importing numpy.random would cost
    # about 15 ms and 2 MB of every `dsmkit mesh` run. Nor may the flip
    # rounds reach np.unique, whose first 1-D call imports numpy.ma (about
    # 16 ms)
    config = tmp_path / "grid.cfg"
    config.write_text("seed_strategy = grid\nspacing = 20\n")
    code = (
        "import sys\n"
        "from dsmkit.cli import main\n"
        f"assert main(['mesh', '--config', {str(config)!r}, '--out', {str(tmp_path / 'm')!r}]) == 0\n"
        "print('numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    result = _run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False False"
