"""Output check of one benchmark repetition.

Every repetition is checked. On seeds that have a stored reference (made by
make_reference.py from the commit that defined the benchmark), the mesh
counts must match and every lifted z, or every planar vertex for the mesh
workload, must lie within 1e-9 m of the reference. On every seed the
invariants hold: the counts the command printed and wrote match the
artifacts, z stays inside the analytic field bounds, and the triangulation
is locally Delaunay. Artifact sha256s are recorded, not required to match,
so a refactor can show byte-identity without a deliberate format change
failing the run.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

TOL_M = 1e-9
BOUND_SLACK_M = 1e-6  # acceptance criterion 12's slack on the field bounds
_EPS = 2.220446049250313e-16
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def sha256s(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def load_reference(workload: str, seed: int):
    """(meta, arrays) stored for this workload and seed, or None."""
    meta_path = REFERENCE_DIR / f"{workload}.json"
    if not meta_path.exists():
        return None
    meta = json.loads(meta_path.read_text())
    key = str(seed) if meta["seed_dependent"] else "any"
    if key not in meta["seeds"]:
        return None
    with np.load(REFERENCE_DIR / f"{workload}.npz") as arrays:
        return meta["seeds"][key], arrays[f"seed_{key}"]


def sorted_vertices(vertices) -> np.ndarray:
    """Vertices in (x, y) order, keyed on 0.1 mm so that sub-tolerance
    differences cannot reorder them."""
    v = np.asarray(vertices, dtype=float)
    key = np.round(v[:, :2] * 1e4)
    return v[np.lexsort((key[:, 1], key[:, 0]))]


def surface(mesh) -> np.ndarray:
    """What the reference keeps of a run's final mesh: the lifted z of every
    vertex or, for a planar mesh, its vertex set."""
    return np.array(mesh.vertices[:, 2]) if mesh.is_3d else sorted_vertices(mesh.vertices)


def delaunay_violations(vertices: np.ndarray, triangles: np.ndarray) -> int:
    """Interior edges whose opposite vertex lies strictly inside the
    circumcircle of the triangle across. A float filter decides most edges;
    the rest are decided exactly in integer arithmetic."""
    xy = np.asarray(vertices, dtype=float)[:, :2]
    t = np.asarray(triangles, dtype=np.int64)
    n = len(xy)
    u = t.ravel()
    v = t[:, [1, 2, 0]].ravel()
    w = t[:, [2, 0, 1]].ravel()
    key = u * n + v
    order = np.argsort(key)
    rev = v * n + u
    pos = np.searchsorted(key[order], rev)
    pos = np.minimum(pos, len(order) - 1)
    match = key[order][pos] == rev
    # each interior edge once, from the side with u < v
    sel = match & (u < v)
    a, b, c = u[sel], v[sel], w[sel]
    d = w[order[pos[sel]]]

    adx, ady = xy[a, 0] - xy[d, 0], xy[a, 1] - xy[d, 1]
    bdx, bdy = xy[b, 0] - xy[d, 0], xy[b, 1] - xy[d, 1]
    cdx, cdy = xy[c, 0] - xy[d, 0], xy[c, 1] - xy[d, 1]
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    permanent = (
        (np.abs(bdx * cdy) + np.abs(cdx * bdy)) * alift
        + (np.abs(cdx * ady) + np.abs(adx * cdy)) * blift
        + (np.abs(adx * bdy) + np.abs(bdx * ady)) * clift
    )
    bound = _INCIRCLE_BOUND * permanent
    violations = int(np.count_nonzero(det > bound))
    unsure = np.nonzero(np.abs(det) <= bound)[0]
    if len(unsure):
        exact = _exact_coordinates(xy)
        for i in unsure:
            violations += _incircle_exact_positive(exact, a[i], b[i], c[i], d[i])
    return violations


def _exact_coordinates(xy: np.ndarray) -> list:
    """Coordinates as integers on one power-of-two grid: every float is an
    integer multiple of the smallest ulp among them, so these are exact."""
    ratios = [v.as_integer_ratio() for v in xy.ravel().tolist()]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    return [(ints[2 * k], ints[2 * k + 1]) for k in range(len(xy))]


def _incircle_exact_positive(exact, a, b, c, d) -> bool:
    dx, dy = exact[d]
    adx, ady = exact[a][0] - dx, exact[a][1] - dy
    bdx, bdy = exact[b][0] - dx, exact[b][1] - dy
    cdx, cdy = exact[c][0] - dx, exact[c][1] - dy
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return det > 0


def _obj_counts(path: Path):
    nv = nf = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                nv += 1
            elif line.startswith("f "):
                nf += 1
    return nv, nf


def check(workload, seed, config, captured, out_dir: Path, stdout: str, compare: bool = True) -> dict:
    """Check one repetition. Returns {"ok", "problems", "reference", "sha256",
    "counts", "surface"}; `compare=False` skips the comparison with the
    stored reference (when making it)."""
    problems = []
    final = captured.get("lift")
    final = final[0] if final is not None else captured.get("smooth")
    triangulated = captured.get("triangulate")
    if final is None or triangulated is None:
        return {"ok": False, "problems": ["the command produced no mesh"], "reference": None, "sha256": {},
                "counts": None, "surface": None}
    nv, nt = final.n_vertices, final.n_triangles

    # the counts printed and written match the artifacts
    if workload.command == "mesh":
        obj = out_dir / "planar_mesh.obj"
        printed = re.search(r"planar mesh: (\d+) vertices, (\d+) triangles", stdout)
        claimed = [(int(printed[1]), int(printed[2]))] if printed else []
    else:
        obj = out_dir / f"dsm_{config.method}.obj"
        printed = re.search(r"mesh: (\d+) vertices, \d+ edges, (\d+) triangles", stdout)
        claimed = [(int(printed[1]), int(printed[2]))] if printed else []
        report = dict(
            line.split(",", 1) for line in (out_dir / "report.csv").read_text().splitlines()[1:]
        )
        claimed.append((int(report["mesh_vertices"]), int(report["mesh_triangles"])))
        vtk = (out_dir / f"dsm_{config.method}.vtk").read_text()
        points = re.search(r"^POINTS (\d+) ", vtk, re.M)
        polygons = re.search(r"^POLYGONS (\d+) ", vtk, re.M)
        claimed.append((int(points[1]), int(polygons[1])))
    if not printed:
        problems.append("the command did not print its mesh counts")
    claimed.append(_obj_counts(obj))
    for counts in claimed:
        if counts != (nv, nt):
            problems.append(f"artifact or report counts {counts} differ from the mesh ({nv}, {nt})")

    # z inside the analytic field bounds (acceptance criterion 12)
    if final.is_3d:
        p = config.terrain_params
        lo, hi = sorted((p["base"], p["base"] + p["amplitude"]))
        z = final.vertices[:, 2]
        if z.min() < lo - BOUND_SLACK_M or z.max() > hi + BOUND_SLACK_M:
            problems.append(f"z in [{z.min():.6f}, {z.max():.6f}] leaves the field bounds [{lo}, {hi}]")

    bad = delaunay_violations(triangulated.vertices, triangulated.triangles)
    if bad:
        problems.append(f"{bad} edges of the triangulation are not locally Delaunay")

    digests = sha256s(out_dir)
    values = surface(final)
    ref = load_reference(workload.name, seed) if compare else None
    reference = None
    if ref is not None:
        meta, expected = ref
        if (nv, nt) != (meta["vertices"], meta["triangles"]):
            problems.append(f"counts ({nv}, {nt}) differ from the reference {meta['vertices'], meta['triangles']}")
        else:
            err = float(np.max(np.abs(values - expected)))
            if not err <= TOL_M:
                what = "lifted z" if final.is_3d else "vertex set"
                problems.append(f"{what} differs from the reference by up to {err:.3g} m")
        reference = {"compared": True, "sha256_identical": digests == meta["sha256"]}
    return {"ok": not problems, "problems": problems, "reference": reference, "sha256": digests,
            "counts": [nv, nt], "surface": values}
