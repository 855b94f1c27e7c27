"""Spans and counts recorded around dsmkit's public calls, from outside.

Nothing in `src/` knows about this module. `patch` swaps a function for a
wrapper on every loaded dsmkit module that holds it, so calls made through
module globals (how the pipeline reaches every layer) go through the
wrapper. Spans nest on the one thread the pipeline runs on.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (span name, defining module, function). A span's layer is the part of its
# name before the dot.
SPANS = (
    ("cli.config", "dsmkit.pipeline", "config_from_sources"),
    ("acquisition.scan", "dsmkit.acquisition", "scan_grid"),
    ("acquisition.clip", "dsmkit.acquisition", "clip_to_region"),
    ("acquisition.convert", "dsmkit.acquisition", "convert_pointset"),
    ("geodesy.forward", "dsmkit.geodesy", "wgs84_to_utm"),
    ("mesh.seed", "dsmkit.mesh", "seed_region"),
    ("mesh.triangulate", "dsmkit.mesh", "delaunay_triangulate"),
    ("delaunay.triangulate", "dsmkit.delaunay", "triangulate"),
    ("mesh.smooth", "dsmkit.mesh", "laplacian_smooth"),
    ("mesh.quality", "dsmkit.mesh", "mesh_quality"),
    ("mesh.contours", "dsmkit.mesh", "extract_contours"),
    ("variogram.estimate", "dsmkit.variogram", "empirical_variogram"),
    ("variogram.fit", "dsmkit.variogram", "fit_model"),
    ("interpolate.lift", "dsmkit.interpolate", "lift_mesh"),
    ("pipeline.export", "dsmkit.pipeline", "export_mesh"),
    ("pipeline.export", "dsmkit.pipeline", "write_contours_csv"),
    ("pipeline.export", "dsmkit.pipeline", "write_variogram_csv"),
    ("pipeline.export", "dsmkit.pipeline", "write_report_csv"),
    ("pipeline.export", "dsmkit.pipeline", "write_point_file"),
)

# Calls too frequent for a span each: counted only.
COUNTERS = (
    ("delaunay.orient_calls", "dsmkit.delaunay", "orient2d"),
    ("delaunay.incircle_calls", "dsmkit.delaunay", "incircle"),
    ("delaunay.exact_orient_fallbacks", "dsmkit.delaunay", "_orient_exact"),
    ("delaunay.exact_incircle_fallbacks", "dsmkit.delaunay", "_incircle_exact"),
    ("interpolate.uk_solve_calls", "dsmkit.interpolate", "uk_solve"),
    ("interpolate.idw_predict_calls", "dsmkit.interpolate", "idw_predict"),
)

LAYERS = ("cli", "acquisition", "geodesy", "mesh", "delaunay", "variogram", "interpolate", "pipeline")


def patch(wrappers: dict) -> set:
    """Wrap functions in place. `wrappers` maps (module, function) to a list
    of wrapper factories, applied innermost first. Returns the targets that
    do not exist, so their metrics can be reported as absent."""
    absent = set()
    for (module, name), factories in wrappers.items():
        original = getattr(importlib.import_module(module), name, None)
        if original is None:
            absent.add((module, name))
            continue
        wrapped = original
        for factory in factories:
            wrapped = factory(wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dsmkit" or mod_name.startswith("dsmkit."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return absent


def capture(store: dict, key: str):
    """Wrapper factory that keeps the latest result of a call in store[key]."""

    def factory(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            store[key] = result
            return result

        return wrapper

    return factory


class Tracer:
    """Spans (id, parent id, name, start, end) and call counts of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.notes = Counter()  # sizes read off arguments and results
        self._stack = []

    def span(self, name: str, after=None):
        spans, stack = self.spans, self._stack

        def factory(fn):
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else None
                stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[sid] = (sid, parent, name, start, end)
                if after is not None:
                    after(self.notes, args, result)
                return result

            return wrapper

        return factory

    def counter(self, name: str):
        counts = self.counts

        def factory(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return factory

    def wrappers(self) -> dict:
        """Wrapper factories for every span and counter target."""
        after = {
            "acquisition.scan": _after_scan,
            "acquisition.clip": _after_clip,
            "mesh.smooth": _after_smooth,
            "variogram.estimate": _after_estimate,
            "interpolate.lift": _after_lift,
        }
        out = {}
        for name, module, fn in SPANS:
            out[(module, fn)] = [self.span(name, after.get(name))]
        for name, module, fn in COUNTERS:
            out[(module, fn)] = [self.counter(name)]
        return out

    def records(self):
        return [
            {"run": self.run_id, "id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
            for s in self.spans
        ]


def _after_scan(notes, args, result):
    notes["scan_nodes"] += len(result)


def _after_clip(notes, args, result):
    notes["clip_in"] += len(args[0])
    notes["clip_kept"] += len(result)


def _after_smooth(notes, args, result):
    notes["vertices"] = result.n_vertices
    notes["triangles"] = result.n_triangles


def _after_estimate(notes, args, result):
    n = len(args[0])
    notes["pairs_scanned"] += n * (n - 1) // 2
    notes["pairs_binned"] += int(sum(result.pair_counts))


def _after_lift(notes, args, result):
    notes["lifted_vertices"] += args[0].n_vertices
    notes["fallbacks"] += len(result[1].fallback_vertices)


def _ratio(num, den):
    # a layer that never ran has no base; report 0 rather than drop the metric
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float, bytes_written: int, absent: set) -> dict:
    """Per-layer metrics of one traced run; `wall` is its cli.main wall time.

    Self times of the layers plus pipeline.unaccounted_s add up to `wall`.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    total = Counter()
    top_level = 0.0
    for sid, parent, name, start, end in spans:
        if parent is None:
            top_level += end - start
        else:
            child_time[parent] += end - start
        total[name] += end - start
    self_time = Counter()
    for sid, parent, name, start, end in spans:
        self_time[name.split(".")[0]] += (end - start) - child_time[sid]
    calls = Counter(s[2] for s in spans)
    counts, notes = tracer.counts, tracer.notes

    m = {
        "acquisition.scan_s": total["acquisition.scan"],
        "acquisition.scan_nodes": notes["scan_nodes"],
        "acquisition.convert_s": total["acquisition.convert"],
        "acquisition.clip_kept_ratio": _ratio(notes["clip_kept"], notes["clip_in"]),
        "geodesy.forward_calls": calls["geodesy.forward"],
        "variogram.estimate_s": total["variogram.estimate"],
        "variogram.pairs_scanned": notes["pairs_scanned"],
        "variogram.pairs_binned": notes["pairs_binned"],
        "variogram.pairs_kept_ratio": _ratio(notes["pairs_binned"], notes["pairs_scanned"]),
        "variogram.fit_s": total["variogram.fit"],
        "mesh.seed_s": total["mesh.seed"],
        "mesh.triangulate_s": total["mesh.triangulate"],
        "mesh.smooth_s": total["mesh.smooth"],
        "mesh.quality_s": total["mesh.quality"],
        "mesh.contours_s": total["mesh.contours"],
        "mesh.vertices": notes["vertices"],
        "mesh.triangles": notes["triangles"],
        "delaunay.triangulate_s": total["delaunay.triangulate"],
        "delaunay.orient_calls": counts["delaunay.orient_calls"],
        "delaunay.incircle_calls": counts["delaunay.incircle_calls"],
        "delaunay.exact_orient_fallbacks": counts["delaunay.exact_orient_fallbacks"],
        "delaunay.exact_incircle_fallbacks": counts["delaunay.exact_incircle_fallbacks"],
        "delaunay.exact_fraction": _ratio(
            counts["delaunay.exact_orient_fallbacks"] + counts["delaunay.exact_incircle_fallbacks"],
            counts["delaunay.orient_calls"] + counts["delaunay.incircle_calls"],
        ),
        "interpolate.lift_s": total["interpolate.lift"],
        "interpolate.lift_us_per_vertex": 1e6 * _ratio(total["interpolate.lift"], notes["lifted_vertices"]),
        "interpolate.uk_solve_calls": counts["interpolate.uk_solve_calls"],
        "interpolate.idw_predict_calls": counts["interpolate.idw_predict_calls"],
        "interpolate.fallbacks": notes["fallbacks"],
        "pipeline.export_s": total["pipeline.export"],
        "pipeline.bytes_written": bytes_written,
        "pipeline.unaccounted_s": wall - top_level,
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    # A function a later change removed is reported absent, not as zero.
    for name, module, fn in COUNTERS:
        if (module, fn) in absent:
            del m[name]
            if "exact" in name:
                m.pop("delaunay.exact_fraction", None)
    for name in {n for n, _, _ in SPANS}:
        if all((mod, fn) in absent for n, mod, fn in SPANS if n == name):
            m.pop(f"{name}_s", None)
    return m
