"""Command line interface.

Subcommands map to pipeline stages: scan, convert, mesh, variogram, lift,
run, compare. Each one composes the public stage functions of `pipeline`,
every one inside a `pipeline.Stage`, so an error names its stage, a failed
stage leaves no partial artifact and `-v` logs each stage's wall time.
`mesh` reads no input: the config alone fixes the rectangle it covers.
`convert` puts a point file into its centroid's UTM zone; every other
subcommand uses the config's one frame, `PipelineConfig.utm_crs`.
Options override config-file keys, which override built-in defaults (the
defaults reproduce the bundled Haut-Barr-sized synthetic demo); the config is
checked in full before any stage runs. Exit codes: 0 success, 1
configuration error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

import numpy as np

from .acquisition import convert_pointset
from .errors import ConfigError, DsmError
from .pipeline import (
    DEFAULTS,
    PipelineConfig,
    Stage,
    acquire,
    build_planar_mesh,
    compare_methods,
    config_from_sources,
    ensure_dir,
    export_mesh,
    prepare_samples,
    run,
    variogram_model,
    write_compare_csv,
    write_point_file,
    write_variogram_csv,
)


def _common_options() -> argparse.ArgumentParser:
    # the options every subcommand takes, made once and given to each as a
    # parent. Values are strings here: PipelineConfig.from_mapping parses
    # and checks them, so a bad value is a configuration error (exit 1), not
    # a usage one
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    p.add_argument("--input", metavar="PATH", help="point file, or 'synthetic'")
    p.add_argument("--method", metavar="uk|idw", help="interpolation method")
    p.add_argument("--power", metavar="P", help="IDW power parameter")
    p.add_argument(
        "--variogram",
        metavar="spherical|gaussian|exponential",
        help="theoretical variogram kind",
    )
    p.add_argument("--drift", metavar="0|1", help="kriging drift degree")
    p.add_argument("--neighbors", metavar="N|global", help="neighborhood size")
    p.add_argument("--spacing", metavar="M", help="mesh vertex spacing, meters")
    p.add_argument("--smooth-iters", metavar="K", help="Laplacian sweeps")
    p.add_argument("--seed", metavar="S", help="RNG seed")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--format", metavar="LIST", help="comma list from obj,vtk,csv")
    return p


def _config_from_args(args) -> PipelineConfig:
    # every override flag's dest is the config key it sets
    overrides = {k: v for k, v in vars(args).items() if k in DEFAULTS}
    return config_from_sources(args.config, overrides)


def _cmd_scan(config: PipelineConfig) -> int:
    with Stage("acquire"):
        ps = acquire(config)
    with Stage("export"):
        path = ensure_dir(config.out_dir) / "points.txt"
        write_point_file(path, ps, header="latitude longitude altitude (wgs84)")
    print(f"scanned {len(ps)} points -> {path}")
    return 0


def _cmd_convert(config: PipelineConfig) -> int:
    if config.input == "synthetic":
        raise ConfigError("convert needs --input pointing at a point file")
    with Stage("acquire"):
        ps = acquire(config)
    with Stage("convert"):
        utm = convert_pointset(ps, "utm")
    with Stage("export"):
        path = ensure_dir(config.out_dir) / "points_utm.txt"
        write_point_file(
            path, utm, header=f"easting northing altitude (utm zone={utm.crs.zone} "
            f"hemisphere={utm.crs.hemisphere})"
        )
    print(f"converted {len(utm)} points to zone {utm.crs.zone} -> {path}")
    return 0


def _cmd_mesh(config: PipelineConfig) -> int:
    with Stage("mesh"):
        planar, q_before, q_after = build_planar_mesh(config)
    with Stage("export"):
        path = ensure_dir(config.out_dir) / "planar_mesh.obj"
        flat = planar.with_vertices(
            np.column_stack([planar.vertices, np.zeros(planar.n_vertices)])
        )
        export_mesh(flat, "obj", path)
    print(
        f"planar mesh: {planar.n_vertices} vertices, {planar.n_triangles} triangles -> {path}"
    )
    print(
        f"quality before/after smoothing: min angle "
        f"{q_before.min_angle:.2f} -> {q_after.min_angle:.2f} deg, "
        f"mean min angle {q_before.mean_min_angle:.2f} -> {q_after.mean_min_angle:.2f} deg"
    )
    return 0


def _cmd_variogram(config: PipelineConfig) -> int:
    with Stage("acquire"):
        samples = prepare_samples(config)
    with Stage("variogram"):
        model, ev = variogram_model(config, samples)
    if ev is not None:
        with Stage("export"):
            path = ensure_dir(config.out_dir) / "variogram.csv"
            write_variogram_csv(path, ev)
        print(f"experimental variogram ({len(ev)} bins) -> {path}")
    print(
        f"{model.kind} model: nugget={model.nugget:.6g} partial_sill="
        f"{model.partial_sill:.6g} range={model.range_:.6g}"
    )
    return 0


def _cmd_lift(config: PipelineConfig) -> int:
    # the DSM alone: the full run without its CSV artifacts
    mesh_formats = tuple(f for f in config.formats if f != "csv")
    report = run(replace(config, formats=mesh_formats))
    print(
        f"lifted {report.mesh_vertices} vertices with {report.method}: "
        f"z in [{report.z_min:.3f}, {report.z_max:.3f}] m"
    )
    for path in report.artifacts:
        print(f"wrote {path}")
    return 0


def _cmd_run(config: PipelineConfig) -> int:
    report = run(config)
    print(f"samples: {report.sample_count} acquired, {report.clipped_count} in region")
    print(
        f"mesh: {report.mesh_vertices} vertices, {report.mesh_edges} edges, "
        f"{report.mesh_triangles} triangles (utm zone {report.zone})"
    )
    print(
        f"smoothing: mean min angle {report.quality_before.mean_min_angle:.2f} -> "
        f"{report.quality_after.mean_min_angle:.2f} deg"
    )
    if report.variogram_model is not None:
        vm = report.variogram_model
        print(
            f"variogram: {vm.kind} nugget={vm.nugget:.6g} "
            f"partial_sill={vm.partial_sill:.6g} range={vm.range_:.6g}"
        )
    print(
        f"{report.method} lift: z in [{report.z_min:.3f}, {report.z_max:.3f}] m, "
        f"{report.fallback_count} fallbacks, {report.interpolation_seconds:.2f} s"
    )
    for path in report.artifacts:
        print(f"wrote {path}")
    return 0


def _cmd_compare(config: PipelineConfig) -> int:
    cmp = compare_methods(config)
    with Stage("export"):
        path = ensure_dir(config.out_dir) / "compare.csv"
        write_compare_csv(path, cmp)
    print(
        f"uk vs idw over {cmp.n_vertices} vertices: max |dz| = "
        f"{cmp.max_abs_difference:.4f} m, mean |dz| = {cmp.mean_abs_difference:.4f} m"
    )
    print(
        f"roughness (mean dihedral angle): uk {cmp.roughness_uk_deg:.3f} deg, "
        f"idw {cmp.roughness_idw_deg:.3f} deg"
    )
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "scan": (_cmd_scan, "sample a synthetic terrain over the configured region"),
    "convert": (_cmd_convert, "convert a wgs84 point file to UTM"),
    "mesh": (_cmd_mesh, "seed, triangulate and smooth the planar mesh"),
    "variogram": (_cmd_variogram, "estimate and fit the semivariogram"),
    "lift": (_cmd_lift, "build the DSM (mesh + interpolation) and export it"),
    "run": (_cmd_run, "full pipeline: acquire, mesh, interpolate, export all artifacts"),
    "compare": (_cmd_compare, "lift with both methods and report the differences"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmkit",
        description="Build discrete surface models from scattered elevation samples.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=common)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handler, _ = _COMMANDS[args.command]
    try:
        return handler(_config_from_args(args))
    except DsmError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
