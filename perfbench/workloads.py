"""The benchmark's workloads: one user-facing `dsmkit` command each.

Every workload is a CLI subcommand plus the config keys it sets on top of the
built-in defaults. The benchmark's `--seed` is passed to the program as the
config `seed` key (it drives the jittered mesh seeding); nothing else about the
input changes with it. This module uses the standard library only, because
the worker imports it before it times `import dsmkit`.
"""

from __future__ import annotations


class Workload:
    def __init__(self, name: str, command: str, config: dict, why: str):
        self.name = name
        self.command = command
        self.config = config
        self.why = why

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "demo_uk",
            "run",
            {},
            # The paper's headline scenario: it touches every layer, and the
            # local kNN kriging lift dominates it.
            why="paper demo with built-in defaults: every layer runs and the local kNN kriging lift dominates",
        ),
        Workload(
            "mesh_grid",
            "mesh",
            {"seed_strategy": "grid", "spacing": 3},
            # The mesh-heavy half of the scaled case. Cocircular grid seeds
            # drive the exact-arithmetic predicates; variogram and
            # interpolate never run, so it is the control for them. Grid
            # seeding ignores the seed, so every seed gives the same input.
            why="mesh-heavy half of the scaled case: cocircular grid drives exact Delaunay predicates; no variogram or lift",
        ),
        Workload(
            "dense_scan",
            "run",
            {"rows": 120, "cols": 240, "spacing": 20},
            # The sample-heavy half of the scaled case: 20,301 samples but
            # only 315 vertices, so the variogram, acquisition and geodesy
            # do the work while the mesh and the lift do little.
            why="sample-heavy half of the scaled case: variogram, acquisition and geodesy work; mesh and lift are small",
        ),
        Workload(
            "global_uk",
            "run",
            {"rows": 16, "cols": 32, "spacing": 15, "neighbors": "global"},
            # The only workload on the global kriging path: one dense
            # (n+3)^2 solve per vertex and no kNN, so a kNN-index change
            # should show nothing here and a factor-once change only here.
            why="the global kriging path: one dense (n+3)^2 solve per vertex, no kNN; BLAS uses both cores",
        ),
    )
}
