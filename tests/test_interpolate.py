"""Interpolation tests: kriging constraints and oracle, IDW formula, lifts."""

import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmkit.interpolate as interpolate
from _oracles import (
    SingularSystem,
    assemble_uk_system,
    cond_bound_reference,
    gauss_solve,
    idw_reference,
    nearest_subset,
    solve_or_fail_reference,
    spherical_gamma,
    spread_ratio_reference,
    uk_lift_reference,
    uk_solve_reference,
)
from dsmkit.acquisition import PointSet, UtmCrs
from dsmkit.errors import ConfigError, DataError, NumericalError
from dsmkit.geodesy import UtmPoint, utm_forward
from dsmkit.geometry import Rect
from dsmkit.interpolate import (
    GridIndex,
    IdwConfig,
    KrigingSystem,
    UkConfig,
    drift_basis,
    idw_predict,
    lift_mesh,
    uk_predict,
    uk_solve,
)
from dsmkit.mesh import delaunay_triangulate, seed_region
from dsmkit.pipeline import (
    PipelineConfig,
    build_planar_mesh,
    prepare_samples,
    variogram_model,
)
from dsmkit.variogram import MODEL_KINDS, VariogramModel, model_gamma

SPH = VariogramModel("spherical", 0.5, 2.0, 8.0)


class TestDriftBasis:
    def test_degree_zero(self):
        assert drift_basis(0, (3.0, 4.0)).tolist() == [1.0]

    def test_degree_one(self):
        assert drift_basis(1, (3.0, 4.0)).tolist() == [1.0, 3.0, 4.0]

    def test_origin(self):
        assert drift_basis(1, (0.0, 0.0)).tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("degree", [0, 1])
    def test_stack_matches_per_point_calls(self, degree):
        x = np.random.default_rng(24).uniform(-50.0, 50.0, (4, 16, 2))
        got = drift_basis(degree, x)
        assert got.shape == (4, 16, 1 + 2 * degree)
        for i, j in np.ndindex(4, 16):
            assert np.array_equal(got[i, j], drift_basis(degree, x[i, j]))

    def test_degree_two_rejected(self):
        with pytest.raises(ConfigError):
            drift_basis(2, (0.0, 0.0))
        with pytest.raises(ConfigError):
            drift_basis(2, np.zeros((4, 16, 2)))


class TestUkSolve:
    def test_exact_at_sample(self):
        rng = np.random.default_rng(4)
        locs = rng.uniform(0, 10, size=(8, 2))
        vals = rng.uniform(100, 200, size=8)
        sys = KrigingSystem(locs, vals, SPH, drift_degree=1, neighborhood=None)
        sol = uk_solve(sys, locs[3])
        assert sol.prediction == vals[3]
        w = np.zeros(8)
        w[np.nonzero(sol.sample_indices == 3)[0][0]] = 1.0
        assert np.array_equal(sol.weights, w)

    def test_system_is_frozen_and_owns_its_samples(self):
        # a reassigned model would skip the zero-sill check (a bare
        # ZeroDivisionError), and a caller's later change to its arrays would
        # reach predictions behind a stale neighbour index
        rng = np.random.default_rng(4)
        locs = rng.uniform(0, 10, size=(30, 2))
        vals = rng.uniform(0, 10, size=30)
        sys = KrigingSystem(locs, vals, SPH, drift_degree=1, neighborhood=8)
        target = [(5.0, 5.0)]
        before = uk_predict(sys, target)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.model = VariogramModel("spherical", 0.0, 0.0, 5.0)
        locs += 1000.0
        vals[:] = 0.0
        assert np.array_equal(uk_predict(sys, target), before)
        assert not (sys.locations.flags.writeable or sys.values.flags.writeable)

    def test_two_symmetric_samples_half_weights(self):
        locs = np.array([[-1.0, 0.0], [1.0, 0.0]])
        vals = np.array([10.0, 20.0])
        sys = KrigingSystem(locs, vals, SPH, drift_degree=0, neighborhood=None)
        sol = uk_solve(sys, (0.0, 0.0))
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-12)
        assert sol.prediction == pytest.approx(15.0, abs=1e-9)

    def test_weight_sum_and_drift_constraints(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = rng.integers(5, 15)
            locs = rng.uniform(0, 100, size=(n, 2))
            vals = rng.uniform(0, 50, size=n)
            k = int(rng.integers(0, 2))
            model = VariogramModel(
                "spherical", rng.uniform(0, 2), rng.uniform(0.5, 5), rng.uniform(10, 200)
            )
            sys = KrigingSystem(locs, vals, model, drift_degree=k, neighborhood=None)
            x0 = rng.uniform(0, 100, size=2)
            sol = uk_solve(sys, x0)
            assert abs(sol.weights.sum() - 1.0) <= 1e-9
            if k == 1:
                scale = 100.0
                assert abs(sol.weights @ locs[sol.sample_indices, 0] - x0[0]) <= 1e-9 * scale
                assert abs(sol.weights @ locs[sol.sample_indices, 1] - x0[1]) <= 1e-9 * scale

    def test_matches_independent_dense_solve(self):
        # oracle: assemble the uncentered bordered system and solve it with a
        # locally implemented Gaussian elimination
        rng = np.random.default_rng(77)
        for _ in range(25):
            locs = rng.uniform(0, 10, size=(8, 2))
            vals = rng.uniform(0, 5, size=8)
            c0, c, a = rng.uniform(0.1, 1), rng.uniform(0.5, 3), rng.uniform(2, 20)
            model = VariogramModel("spherical", c0, c, a)
            sys = KrigingSystem(locs, vals, model, drift_degree=1, neighborhood=None)
            x0 = rng.uniform(0, 10, size=2)
            sol = uk_solve(sys, x0)

            A, b = assemble_uk_system(
                locs, vals, lambda h: spherical_gamma(c0, c, a, h), x0, 1
            )
            ref = gauss_solve(A, b)
            # put package weights back into original sample order
            lam_pkg = np.empty(8)
            lam_pkg[sol.sample_indices] = sol.weights
            assert np.allclose(lam_pkg, ref[:8], atol=1e-9)
            assert np.allclose(sol.drift_multipliers, ref[8:], atol=1e-9)
            assert sol.prediction == pytest.approx(float(ref[:8] @ vals), abs=1e-9)

    def test_plane_reproduction(self):
        rng = np.random.default_rng(21)
        locs = rng.uniform(0, 100, size=(30, 2))
        a, b, c = 2.0, 0.5, -0.3
        vals = a + b * locs[:, 0] + c * locs[:, 1]
        sys = KrigingSystem(locs, vals, SPH, drift_degree=1, neighborhood=None)
        for _ in range(20):
            t = rng.uniform(0, 100, size=2)
            expected = a + b * t[0] + c * t[1]
            assert uk_solve(sys, t).prediction == pytest.approx(expected, rel=1e-6)

    def test_constant_field(self):
        rng = np.random.default_rng(30)
        locs = rng.uniform(0, 10, size=(10, 2))
        sys = KrigingSystem(locs, np.full(10, 42.0), SPH, drift_degree=0, neighborhood=None)
        assert uk_solve(sys, (3.3, 7.7)).prediction == pytest.approx(42.0, abs=1e-9)

    def test_collinear_samples_name_drift_term(self):
        locs = np.column_stack([np.linspace(0, 10, 6), np.linspace(0, 20, 6)])
        vals = np.zeros(6)
        sys = KrigingSystem(locs, vals, SPH, drift_degree=1, neighborhood=None)
        with pytest.raises(NumericalError) as err:
            uk_solve(sys, (5.0, 5.0))
        assert "collinear drift border" in str(err.value)

    def test_translation_invariance(self):
        rng = np.random.default_rng(55)
        locs = rng.uniform(0, 50, size=(12, 2))
        vals = rng.uniform(0, 10, size=12)
        shift = np.array([123456.0, 654321.0])
        t = np.array([20.0, 30.0])
        s1 = KrigingSystem(locs, vals, SPH, 1, None)
        s2 = KrigingSystem(locs + shift, vals, SPH, 1, None)
        p1 = uk_solve(s1, t).prediction
        p2 = uk_solve(s2, t + shift).prediction
        assert p1 == pytest.approx(p2, abs=1e-7 * max(1.0, abs(p1)))

    def test_nearest_neighborhood_ties_by_index(self):
        # four equidistant samples, k=2: the two lowest indices win
        locs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        sys = KrigingSystem(locs, vals, SPH, drift_degree=0, neighborhood=2)
        sol = uk_solve(sys, (0.0, 0.0))
        assert sorted(sol.sample_indices.tolist()) == [0, 1]

    def test_duplicate_samples_rejected(self):
        locs = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DataError):
            KrigingSystem(locs, np.zeros(4), SPH, 0, None)

    def test_batch_equals_single(self):
        rng = np.random.default_rng(91)
        locs = rng.uniform(0, 40, size=(20, 2))
        vals = rng.uniform(0, 5, size=20)
        sys = KrigingSystem(locs, vals, SPH, drift_degree=1, neighborhood=8)
        gx, gy = np.meshgrid(np.linspace(0, 40, 10), np.linspace(0, 40, 10))
        targets = np.column_stack([gx.ravel(), gy.ravel()])
        batch = uk_predict(sys, targets)
        single = np.array([uk_solve(sys, t).prediction for t in targets])
        assert np.array_equal(batch, single)

    def test_batch_equals_single_across_chunk_boundaries(self, monkeypatch):
        # a few targets per chunk, so most stacks start mid-way through the input
        monkeypatch.setattr(interpolate, "_CHUNK_BYTES", 5 * 8 * 11 * 11)
        rng = np.random.default_rng(92)
        locs = rng.uniform(0, 40, size=(60, 2))
        vals = rng.uniform(0, 5, size=60)
        sys = KrigingSystem(locs, vals, SPH, drift_degree=1, neighborhood=8)
        targets = np.vstack([rng.uniform(-5, 45, size=(37, 2)), locs[:3]])
        batch = uk_predict(sys, targets)
        single = np.array([uk_solve(sys, t).prediction for t in targets])
        assert np.array_equal(batch, single)

    def test_matches_per_target_reference(self):
        rng = np.random.default_rng(93)
        locs = rng.uniform(0, 60, size=(40, 2))
        vals = rng.uniform(0, 5, size=40)
        targets = np.vstack([rng.uniform(-10, 70, size=(15, 2)), locs[:2]])
        for degree in (0, 1):
            for k in (None, 6):
                sys = KrigingSystem(locs, vals, SPH, drift_degree=degree, neighborhood=k)
                for t in targets:
                    sol = uk_solve(sys, t)
                    w, mu, pred, var, idx = uk_solve_reference(locs, vals, SPH, degree, k, t)
                    assert np.array_equal(sol.sample_indices, idx)
                    assert np.array_equal(sol.weights, w)
                    assert np.array_equal(sol.drift_multipliers, mu)
                    assert (sol.prediction, sol.variance) == (pred, var)

    def test_near_coincident_samples_rejected(self):
        # a pair closer than the tolerance, hidden in a lattice, at UTM scale
        gx, gy = np.meshgrid(np.arange(15) * 3.0, np.arange(12) * 3.0)
        locs = np.column_stack([gx.ravel(), gy.ravel()]) + [412000.0, 5398000.0]
        locs = np.vstack([locs, locs[17] + [4e-10, 3e-10]])
        with pytest.raises(DataError, match="samples 17 and 180 coincide"):
            KrigingSystem(locs, np.zeros(len(locs)), SPH, 1, 16)
        locs[-1] = locs[17] + [2e-9, 0.0]
        KrigingSystem(locs, np.zeros(len(locs)), SPH, 1, 16)


class TestGridIndex:
    """The index returns exactly the brute-force (distance, index) order."""

    KS = (1, 2, 3, 4, 5, 8, 9, 16, 25, 34, 35, 36, None)

    @staticmethod
    def _check(locs, targets, ks):
        index = GridIndex(locs)
        for k in ks:
            want = np.array([nearest_subset(locs, t, k) for t in targets])
            assert np.array_equal(index.knn(targets, k), want), k

    @pytest.mark.parametrize(
        "offset, spacing", [((0.0, 0.0), 1.0), ((412345.0, 5398765.0), 3.3)]
    )
    def test_lattice_ties(self, offset, spacing):
        # 7 x 5 lattice: nodes, cell centres and edge midpoints all have
        # many equidistant samples, so the index tie-break decides
        gx, gy = np.meshgrid(np.arange(7.0), np.arange(5.0), indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        locs = grid * spacing + offset
        outside = np.array([[-3.0, 2.0], [10.0, 10.0], [2.5, -7.0], [-40.0, -40.0], [3.0, 60.0]])
        targets = np.vstack([grid, grid + 0.5, grid + [0.5, 0.0], grid + [0.0, 0.5], outside])
        self._check(locs, targets * spacing + offset, self.KS)

    def test_random_scatter(self):
        rng = np.random.default_rng(5)
        locs = rng.uniform(0, 300, size=(400, 2))
        far = [[1e200, -1e200], [-5e3, 150.0], [150.0, 1e5]]
        targets = np.vstack([rng.uniform(-50, 350, size=(300, 2)), locs[:20], far])
        with np.errstate(over="ignore"):  # squared distances to 1e200 overflow
            self._check(locs, targets, (1, 7, 16, 50, 399, 400))

    def test_clustered_samples_in_a_small_budget(self, monkeypatch):
        # nearly all samples share one cell, and the budget forces the
        # targets to be split into many small batches
        monkeypatch.setattr(interpolate, "_CHUNK_BYTES", 1 << 14)
        rng = np.random.default_rng(6)
        locs = np.vstack([rng.uniform(0, 1, (600, 2)), [[500.0, 500.0], [-80.0, 20.0]]])
        targets = np.vstack([rng.uniform(-1, 2, (60, 2)), [[400.0, 450.0]]])
        self._check(locs, targets, (1, 16, 601))

    def test_parts_stay_in_budget_around_one_dense_window(self, monkeypatch):
        # one target's window holds 600 candidates: it is a part of its own,
        # and every other part, padded to its widest window, fits the budget
        budget = 1 << 14
        monkeypatch.setattr(interpolate, "_CHUNK_BYTES", budget)
        rng = np.random.default_rng(61)
        gx, gy = np.meshgrid(np.arange(30.0), np.arange(30.0))
        spread = np.column_stack([gx.ravel(), gy.ravel()]) * 10.0 + rng.uniform(0, 1, (900, 2))
        locs = np.vstack([spread, 150.0 + rng.uniform(0, 0.01, (600, 2))])
        targets = np.vstack([[[150.005, 150.005]], rng.uniform(0, 300, (200, 2))])
        index = GridIndex(locs)
        cells = index._cells(locs)
        parts = []
        window = GridIndex._window

        def spy(self, t, c, ring, k):
            # the widest window of the part, counted sample by sample
            near = np.abs(cells[None, :, :] - c[:, None, :]).max(axis=2) <= ring
            parts.append((len(t), int(near.sum(axis=1).max())))
            return window(self, t, c, ring, k)

        monkeypatch.setattr(GridIndex, "_window", spy)
        for k in (1, 16):
            parts.clear()
            want = np.array([nearest_subset(locs, t, k) for t in targets])
            assert np.array_equal(index.knn(targets, k), want)
            assert max(width for _, width in parts) >= 600
            # about ten 8-byte entries per padded candidate
            assert all(t == 1 or 80 * t * width <= budget for t, width in parts)

    def test_degenerate_sample_sets(self):
        targets = np.array([[0.0, 0.0], [3.0, 4.0], [-7.5, 2.0], [100.0, -3.0]])
        # one sample, one point repeated (a single cell), one horizontal line
        for locs in (
            np.array([[3.0, 4.0]]),
            np.tile([[1.0, 2.0]], (5, 1)),
            np.column_stack([np.arange(20.0), np.zeros(20)]),
        ):
            self._check(locs, targets, (1, 2, 4, 19, 20, None))

    @pytest.mark.parametrize("x", [0.7e-9, 0.75e-9, 0.8e-9])
    def test_every_predictor_snaps_to_the_first_knn_sample(self, x):
        # two samples 1.5e-9 m apart, both within the coincidence tolerance
        # of a target between them: the nearer one, or the lower index on a
        # tie (x = 0.75e-9), is the one every predictor snaps to
        rng = np.random.default_rng(62)
        pair = [[1.5e-9, 0.0], [0.0, 0.0]]
        locs = np.vstack([rng.uniform(20.0, 100.0, (30, 2)), pair])
        vals = rng.uniform(0, 10, len(locs))
        target = [[x, 0.0]]
        first = GridIndex(locs).knn(np.array(target), 1)[0, 0]
        assert first == {0.7e-9: 31, 0.75e-9: 30, 0.8e-9: 30}[x]
        for neighborhood in (4, None):
            sys = KrigingSystem(locs, vals, SPH, 1, neighborhood)
            assert uk_predict(sys, target)[0] == vals[first]
        for cfg in (IdwConfig(), IdwConfig(2.0, 4)):
            assert idw_predict(locs, vals, target, cfg)[0] == vals[first]


class TestIdw:
    def test_exact_at_sample(self):
        locs = np.array([[0.0, 0.0], [5.0, 5.0]])
        vals = np.array([7.0, 9.0])
        out = idw_predict(locs, vals, [[5.0, 5.0]])
        assert out[0] == 9.0

    def test_equidistant_mean(self):
        locs = np.array([[-1.0, 0.0], [1.0, 0.0]])
        vals = np.array([10.0, 20.0])
        for p in (0.5, 1.0, 2.0, 7.0):
            out = idw_predict(locs, vals, [[0.0, 0.0]], IdwConfig(power=p))
            assert out[0] == pytest.approx(15.0, abs=1e-12)

    def test_hand_computed_value(self):
        # p=2, z=0 at distance 1, z=3 at distance 2 -> 0.6
        locs = np.array([[1.0, 0.0], [2.0, 0.0]])
        vals = np.array([0.0, 3.0])
        out = idw_predict(locs, vals, [[0.0, 0.0]], IdwConfig(power=2.0))
        assert out[0] == pytest.approx(0.6, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(41)
        locs = rng.uniform(0, 10, size=(15, 2))
        vals = rng.uniform(-5, 5, size=15)
        targets = rng.uniform(0, 10, size=(50, 2))
        for p in (1.0, 2.0, 3.5):
            out = idw_predict(locs, vals, targets, IdwConfig(power=p))
            for t, got in zip(targets, out):
                d = np.hypot(locs[:, 0] - t[0], locs[:, 1] - t[1])
                w = 1.0 / d**p
                assert got == pytest.approx(float(w @ vals / w.sum()), rel=1e-12)

    def test_bounded_by_sample_range(self):
        rng = np.random.default_rng(52)
        locs = rng.uniform(0, 100, size=(30, 2))
        vals = rng.uniform(-50, 50, size=30)
        targets = rng.uniform(-20, 120, size=(1000, 2))
        out = idw_predict(locs, vals, targets, IdwConfig(power=2.0))
        assert np.all(out >= vals.min() - 1e-12)
        assert np.all(out <= vals.max() + 1e-12)

    def test_k1_is_nearest_neighbor(self):
        rng = np.random.default_rng(63)
        locs = rng.uniform(0, 10, size=(12, 2))
        vals = rng.uniform(0, 9, size=12)
        targets = rng.uniform(0, 10, size=(40, 2))
        out = idw_predict(locs, vals, targets, IdwConfig(power=2.0, neighborhood=1))
        for t, got in zip(targets, out):
            d = np.hypot(locs[:, 0] - t[0], locs[:, 1] - t[1])
            assert got == vals[int(np.argmin(d))]

    def test_huge_power_stable(self):
        locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals = np.array([1.0, 2.0, 3.0])
        out = idw_predict(locs, vals, [[0.01, 0.01]], IdwConfig(power=300.0))
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(1.0, abs=1e-9)

    def test_empty_samples_rejected(self):
        with pytest.raises(DataError):
            idw_predict(np.empty((0, 2)), np.empty(0), [[0, 0]])

    def test_matches_per_target_reference(self):
        rng = np.random.default_rng(64)
        locs = rng.uniform(0, 50, size=(80, 2))
        vals = rng.uniform(-5, 5, size=80)
        targets = np.vstack([rng.uniform(-10, 60, size=(120, 2)), locs[:5]])
        for p in (1.0, 2.0, 3.5):
            for k in (None, 1, 5, 16):
                got = idw_predict(locs, vals, targets, IdwConfig(power=p, neighborhood=k))
                assert np.array_equal(got, idw_reference(locs, vals, targets, p, k))

    def test_non_finite_input_rejected(self):
        locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="non-finite target"):
            idw_predict(locs, [1.0, 2.0, 3.0], [[0.5, np.nan]])
        with pytest.raises(DataError, match="non-finite sample"):
            idw_predict(np.vstack([locs, [[np.nan, 0.0]]]), [1.0, 2.0, 3.0, 4.0], [[0.5, 0.5]])
        # a non-finite value once came back as a nan or inf prediction
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="non-finite sample data"):
                idw_predict(locs, [1.0, bad, 2.0], [[0.5, 0.5]])
            with pytest.raises(DataError, match="non-finite sample data"):
                KrigingSystem(np.vstack([locs, [[1.0, 1.0]]]), [1.0, bad, 2.0, 3.0], SPH, 1, None)
        sys = KrigingSystem(np.vstack([locs, [[1.0, 1.0]]]), np.arange(4.0), SPH, 1, None)
        with pytest.raises(DataError, match="non-finite target"):
            uk_predict(sys, [[0.5, 0.5], [np.inf, 0.0]])

    def test_bad_power_rejected(self):
        with pytest.raises(ConfigError):
            IdwConfig(power=0.0)


_FOUR = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
_PREDICTORS = {
    "uk": lambda targets: uk_predict(KrigingSystem(_FOUR, np.arange(4.0), SPH, 1, None), targets),
    "idw": lambda targets: idw_predict(_FOUR, np.arange(4.0), targets),
}


@pytest.mark.parametrize("predictor", sorted(_PREDICTORS))
@pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2, 2)])
def test_predictors_reject_a_target_array_of_another_shape(predictor, shape):
    # a (2, 3) array once read as three points, a (3,) list as numpy's own
    # reshape error
    targets = np.full(shape, 0.5)
    with pytest.raises(DataError, match=re.escape(f"got shape {shape}")):
        _PREDICTORS[predictor](targets)
    assert _PREDICTORS[predictor](np.full((3, 2), 0.5)).shape == (3,)
    assert _PREDICTORS[predictor]([0.5, 0.5]).shape == (1,)


def _utm_pointset(xy, z):
    crs = UtmCrs(32, "north")
    pts = [
        UtmPoint(float(x), float(y), 32, "north", float(v)) for (x, y), v in zip(xy, z)
    ]
    return PointSet(pts, crs)


def _micrometre_pair(neighborhood, scattered=40):
    """A kriging system whose samples include two a micrometre apart (after
    scattered others), and three targets: every system that holds both
    samples is numerically singular, but LU still solves it."""
    rng = np.random.default_rng(10)
    xy = np.vstack([rng.uniform(0, 100, (scattered, 2)), [[50.0, 50.0], [50.0 + 1e-6, 50.0]]])
    model = VariogramModel("gaussian", 0, 2, 50)
    sys = KrigingSystem(xy, rng.uniform(0, 10, scattered + 2), model, 1, neighborhood)
    return sys, np.array([[50.3, 50.2], [10.0, 90.0], [49.5, 50.5]])


class TestLiftMesh:
    def _planar(self):
        pts = seed_region(Rect(0.0, 0.0, 100.0, 80.0), 20.0, strategy="jittered", seed=42)
        return delaunay_triangulate(pts)

    def test_constant_field_both_methods(self):
        planar = self._planar()
        rng = np.random.default_rng(1)
        xy = rng.uniform(-10, 110, size=(40, 2))
        samples = _utm_pointset(xy, np.full(40, 460.0))
        for method in (
            IdwConfig(power=2.0),
            UkConfig(VariogramModel("spherical", 0.1, 1.0, 50.0), 1, 16),
        ):
            lifted, summary = lift_mesh(planar, samples, method)
            assert np.allclose(lifted.vertices[:, 2], 460.0, atol=1e-9)
            assert summary.z_min == pytest.approx(460.0, abs=1e-9)
            assert summary.z_max == pytest.approx(460.0, abs=1e-9)
            assert summary.fallback_vertices == ()

    def test_planar_field_uk_exact(self):
        planar = self._planar()
        rng = np.random.default_rng(2)
        xy = rng.uniform(-10, 110, size=(60, 2))
        z = 5.0 + 0.25 * xy[:, 0] - 0.125 * xy[:, 1]
        samples = _utm_pointset(xy, z)
        lifted, _ = lift_mesh(
            planar, samples, UkConfig(VariogramModel("spherical", 0.2, 1.5, 60.0), 1, None)
        )
        expected = 5.0 + 0.25 * lifted.vertices[:, 0] - 0.125 * lifted.vertices[:, 1]
        assert np.allclose(lifted.vertices[:, 2], expected, rtol=1e-6, atol=1e-6)

    def test_deterministic_bit_identical(self):
        planar = self._planar()
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 100, size=(50, 2))
        z = rng.uniform(100, 200, size=50)
        samples = _utm_pointset(xy, z)
        cfg = UkConfig(VariogramModel("spherical", 0.3, 2.0, 40.0), 1, 12)
        m1, _ = lift_mesh(planar, samples, cfg)
        m2, _ = lift_mesh(planar, samples, cfg)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)

    def test_one_knn_query_for_all_chunks(self, monkeypatch):
        # 1,000 vertices make three chunks of local systems, which slice one
        # kNN query; the only other query is _check_distinct's
        calls = []
        knn = interpolate.GridIndex.knn

        def counted(index, targets, k):
            calls.append((len(targets), k))
            return knn(index, targets, k)

        monkeypatch.setattr(interpolate.GridIndex, "knn", counted)
        rng = np.random.default_rng(71)
        xy = rng.uniform(0, 100, size=(300, 2))
        planar = delaunay_triangulate(rng.uniform(0, 100, size=(1000, 2)))
        assert 2 * interpolate._chunk_size(8 * 19 * 19) < 1000
        cfg = UkConfig(VariogramModel("spherical", 0.3, 2.0, 40.0), 1, 16)
        _, summary = lift_mesh(planar, _utm_pointset(xy, rng.uniform(100, 200, 300)), cfg)
        assert summary.fallback_vertices == ()
        assert calls == [(300, 2), (1000, 16)]

    def test_connectivity_and_flags_preserved(self):
        planar = self._planar()
        rng = np.random.default_rng(5)
        xy = rng.uniform(0, 100, size=(30, 2))
        samples = _utm_pointset(xy, rng.uniform(0, 10, 30))
        lifted, _ = lift_mesh(planar, samples, IdwConfig())
        assert np.array_equal(lifted.triangles, planar.triangles)
        assert np.array_equal(lifted.boundary_flags, planar.boundary_flags)
        assert lifted.is_3d

    def test_requires_planar_mesh(self):
        planar = self._planar()
        lifted, _ = lift_mesh(
            planar,
            _utm_pointset(np.array([[0.0, 0.0], [50.0, 50.0], [100.0, 0.0], [0.0, 80.0]]),
                          [1.0, 2.0, 3.0, 4.0]),
            IdwConfig(),
        )
        with pytest.raises(DataError):
            lift_mesh(lifted, _utm_pointset(np.array([[0.0, 0.0]]), [1.0]), IdwConfig())


class TestLiftAgainstOracle:
    """The batched lift against the per-vertex reference loop."""

    @pytest.mark.parametrize("seed", [42, 7])
    def test_demo_uk_lift(self, seed, monkeypatch, caplog):
        cfg = PipelineConfig.from_mapping({"seed": seed})
        prepared = prepare_samples(cfg)
        samples = prepared.utm
        planar, _, _ = build_planar_mesh(cfg)
        model, _ = variogram_model(cfg, prepared)
        calls = []
        for name in ("cond", "matrix_rank", "inv"):
            monkeypatch.setattr(
                np.linalg, name, lambda *a, f=getattr(np.linalg, name), name=name: (
                    calls.append(name) or f(*a)
                ),
            )
        with caplog.at_level(logging.DEBUG, logger="dsmkit.interpolate"):
            lifted, summary = lift_mesh(
                planar, samples, UkConfig(model, cfg.drift, cfg.neighbors)
            )
        monkeypatch.undo()
        # every demo system passes on its two proven factors, without an
        # inverse, or an SVD of the system or of its drift border
        assert calls == []
        notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("uk lift:")]
        assert "4592 systems certified by their factors, 0 by SVD, 0 fallbacks" in notes[0]
        worst = float(re.search(r"worst cond ≤ (\S+),", notes[0])[1])
        assert worst < 1e9
        want, fallbacks = uk_lift_reference(
            samples.coords(), samples.altitudes(), model, cfg.drift, cfg.neighbors,
            planar.vertices,
        )
        assert list(summary.fallback_vertices) == fallbacks
        assert np.max(np.abs(lifted.vertices[:, 2] - want)) <= 1e-9

    def test_wide_local_systems_are_certified_by_their_factors(self, caplog):
        # one rule at every width: past width 200 (k = 198 at drift degree
        # 1) a local system is certified by its factors as below it
        rng = np.random.default_rng(63)
        xy = rng.uniform(0, 200, (260, 2))
        z = 400.0 + 0.05 * xy[:, 0] + rng.uniform(0, 3, 260)
        planar = delaunay_triangulate(rng.uniform(20, 180, (12, 2)))
        model = VariogramModel("spherical", 0.2, 2.0, 80.0)
        for k in (197, 198):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="dsmkit.interpolate"):
                lift_mesh(planar, _utm_pointset(xy, z), UkConfig(model, 1, k))
            notes = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("uk lift:")]
            assert re.search(r"worst cond ≤ \S+, 0 collinear drift borders, 12 systems "
                             r"certified by their factors, 0 by SVD, 0 fallbacks", notes[0])

    def test_global_uk_system_is_certified_without_an_svd(self, monkeypatch, caplog):
        # the benchmark's global_uk config: its one 354-wide system passes on
        # its two factors, with no inverse and no SVD of the system or of its
        # drift border
        cfg = PipelineConfig.from_mapping(
            {"rows": 16, "cols": 32, "spacing": 15, "neighbors": "global"}
        )
        prepared = prepare_samples(cfg)
        planar, _, _ = build_planar_mesh(cfg)
        model, _ = variogram_model(cfg, prepared)
        calls = []
        for name in ("cond", "matrix_rank", "inv"):
            monkeypatch.setattr(
                np.linalg, name, lambda *a, f=getattr(np.linalg, name), name=name: (
                    calls.append(name) or f(*a)
                ),
            )
        with caplog.at_level(logging.DEBUG, logger="dsmkit.interpolate"):
            _, summary = lift_mesh(planar, prepared.utm, UkConfig(model, cfg.drift, None))
        monkeypatch.undo()
        assert calls == []
        assert summary.fallback_vertices == ()
        notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("uk lift:")]
        assert notes[0].startswith(
            "uk lift: 351 samples, 532 vertices, global neighbourhood, cond ≤ 7.49e+06, 0 fallbacks"
        )

    @staticmethod
    def _line_and_scatter():
        # 40 samples on the line y = 0 and 200 scattered at y >= 5: a target
        # close to the line has only line samples among its 4 nearest
        rng = np.random.default_rng(8)
        line = np.column_stack([np.arange(40.0), np.zeros(40)])
        xy = np.vstack([line, np.column_stack([rng.uniform(0, 40, 200), rng.uniform(5, 40, 200)])])
        return xy, rng.uniform(0, 10, len(xy))

    @staticmethod
    def _grid_targets(nx, ny):
        gx, gy = np.meshgrid(np.linspace(1, 39, nx), np.linspace(8, 39, ny))
        return np.column_stack([gx.ravel(), gy.ravel()])

    def test_collinear_neighbourhoods_fall_back_like_oracle(self, caplog):
        xy, z = self._line_and_scatter()
        near_line = np.array([[10.3, 0.2], [20.6, 0.3], [30.1, 0.1]])
        targets = np.vstack([self._grid_targets(20, 20), near_line])
        planar = delaunay_triangulate(targets)
        with caplog.at_level(logging.DEBUG, logger="dsmkit.interpolate"):
            lifted, summary = lift_mesh(planar, _utm_pointset(xy, z), UkConfig(SPH, 1, 4))
        want, fallbacks = uk_lift_reference(xy, z, SPH, 1, 4, planar.vertices)
        assert len(fallbacks) == 3
        assert list(summary.fallback_vertices) == fallbacks
        assert np.array_equal(lifted.vertices[:, 2], want)
        notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("uk lift:")]
        assert len(notes) == 1
        assert "240 samples, 403 vertices, local neighbourhood of 4, worst cond" in notes[0]
        # the -v note counts the three borders beside the certified systems
        assert re.search(r", 3 collinear drift borders, 400 systems certified by their "
                         r"factors, 0 by SVD, 3 fallbacks", notes[0])
        scanned = re.fullmatch(r".*, 3 fallbacks, (\d+) kNN candidates scanned", notes[0])
        assert scanned and int(scanned[1]) >= 403 * 4

        sys = KrigingSystem(xy, z, SPH, 1, 4)
        with pytest.raises(
            NumericalError,
            match=r"^target 1: collinear drift border in the kriging system at target "
            r"\(10\.3, 0\.2\): spread ratio 0 < 0\.001$",
        ):
            uk_predict(sys, [targets[0], near_line[0]])

    def test_more_than_one_percent_failing_aborts(self):
        xy, z = self._line_and_scatter()
        targets = np.vstack([self._grid_targets(10, 10), [[10.3, 0.2], [20.6, 0.3]]])
        with pytest.raises(NumericalError, match="kriging failed at 2 of 102 vertices"):
            lift_mesh(delaunay_triangulate(targets), _utm_pointset(xy, z), UkConfig(SPH, 1, 4))

    def test_singular_system_fails_only_its_target(self):
        # the gaussian model's semivariogram rounds to exactly 0 at micrometre
        # lags, so a target inside the micrometre cluster gets an all-zero
        # block and LU raises for the whole stack it is in; the far cluster's
        # systems are regular
        rng = np.random.default_rng(9)
        gx, gy = np.meshgrid(np.arange(3) * 1e-6, np.arange(3) * 1e-6)
        xy = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), rng.uniform(5e3, 6e3, (60, 2))])
        z = rng.uniform(0, 10, len(xy))
        model = VariogramModel("gaussian", 0.0, 2.0, 1e3)
        targets = np.vstack([rng.uniform(5e3, 6e3, (150, 2)), [[0.5e-6, 0.7e-6]]])
        planar = delaunay_triangulate(targets)
        lifted, summary = lift_mesh(planar, _utm_pointset(xy, z), UkConfig(model, 0, 4))
        want, fallbacks = uk_lift_reference(xy, z, model, 0, 4, planar.vertices)
        assert fallbacks == [150]
        assert list(summary.fallback_vertices) == fallbacks
        assert np.array_equal(lifted.vertices[:, 2], want)
        with pytest.raises(NumericalError, match="singular coefficient block"):
            uk_solve(KrigingSystem(xy, z, model, 0, 4), targets[150])

    def test_ill_conditioned_system_fails_per_target(self, caplog):
        sys, targets = _micrometre_pair(8)
        for i in (0, 2):
            with pytest.raises(
                NumericalError,
                match=rf"^target 0: ill-conditioned kriging system at target "
                rf"\({targets[i][0]}, {targets[i][1]}\): cond \S+ > 1e\+12; ",
            ):
                uk_predict(sys, [targets[i]])
        assert np.isfinite(uk_predict(sys, [targets[1]])).all()

        # with 225 more vertices far from the pair, two failures stay under
        # 1% and fall back to IDW, as in the per-vertex reference
        gx, gy = np.meshgrid(np.linspace(0, 25, 15), np.linspace(75, 100, 15))
        verts = np.vstack([targets, np.column_stack([gx.ravel(), gy.ravel()])])
        with caplog.at_level(logging.WARNING, logger="dsmkit.interpolate"):
            lifted, summary = lift_mesh(
                delaunay_triangulate(verts), _utm_pointset(sys.locations, sys.values),
                UkConfig(sys.model, 1, 8),
            )
        assert summary.fallback_vertices == (0, 2)
        idw = idw_predict(sys.locations, sys.values, targets[[0, 2]], IdwConfig(2.0, 8))
        assert np.array_equal(lifted.vertices[[0, 2], 2], idw)
        want, fallbacks = uk_lift_reference(sys.locations, sys.values, sys.model, 1, 8, verts)
        assert fallbacks == [0, 2]
        assert np.array_equal(lifted.vertices[:, 2], want)
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "kriging fell back to IDW at 2 vertices: [0, 2]; vertex 0: ill-conditioned "
            f"kriging system at target ({targets[0][0]}, {targets[0][1]}): cond "
        )

    @pytest.mark.parametrize("k", [197, 198])
    def test_wide_ill_conditioned_system_fails(self, k):
        # 258 scattered samples and the pair: the system at k = 198 is wider
        # than 200, and fails by its condition number as the one at k = 197
        # does
        sys, targets = _micrometre_pair(k, scattered=258)
        with pytest.raises(
            NumericalError,
            match=r"^target 0: ill-conditioned kriging system at target \(50\.3, 50\.2\): "
            r"cond \S+ > 1e\+12; the variogram produced a singular coefficient block$",
        ):
            uk_predict(sys, targets[:1])
        with pytest.raises(SingularSystem):
            uk_solve_reference(sys.locations, sys.values, sys.model, 1, k, targets[0])

    def test_fallback_runs_on_the_kriging_index(self, monkeypatch):
        # the two failed vertices fall back to IDW over the kriging
        # system's own index: one GridIndex per lift, and no second check
        # of the samples through idw_predict
        sys, targets = _micrometre_pair(8)
        gx, gy = np.meshgrid(np.linspace(0, 25, 15), np.linspace(75, 100, 15))
        verts = np.vstack([targets, np.column_stack([gx.ravel(), gy.ravel()])])
        planar = delaunay_triangulate(verts)
        samples = _utm_pointset(sys.locations, sys.values)
        calls = []
        init = GridIndex.__init__
        monkeypatch.setattr(
            GridIndex, "__init__", lambda self, locs: calls.append("index") or init(self, locs)
        )
        idw_predict_ = interpolate.idw_predict
        monkeypatch.setattr(
            interpolate, "idw_predict", lambda *a: calls.append("idw_predict") or idw_predict_(*a)
        )
        lifted, summary = lift_mesh(planar, samples, UkConfig(sys.model, 1, 8))
        assert summary.fallback_vertices == (0, 2)
        assert calls == ["index"]
        monkeypatch.undo()
        idw = idw_predict(sys.locations, sys.values, targets[[0, 2]], IdwConfig(2.0, 8))
        assert np.array_equal(lifted.vertices[[0, 2], 2], idw)

    def test_fallback_warning_names_the_first_reason(self, caplog):
        xy, z = self._line_and_scatter()
        targets = np.vstack([self._grid_targets(20, 20), [[20.6, 0.3], [10.3, 0.2]]])
        with caplog.at_level(logging.WARNING, logger="dsmkit.interpolate"):
            _, summary = lift_mesh(
                delaunay_triangulate(targets), _utm_pointset(xy, z), UkConfig(SPH, 1, 4)
            )
        first = summary.fallback_vertices[0]
        assert [r.getMessage() for r in caplog.records] == [
            f"kriging fell back to IDW at 2 vertices: {list(summary.fallback_vertices)}; "
            f"vertex {first}: collinear drift border in the kriging system at target "
            f"{tuple(targets[first].tolist())}: spread ratio 0 < 0.001"
        ]


def _bordered_with_singular_values(rng, n, m, s):
    """A symmetric [[G, F], [F^T, 0]] of width n + m whose singular values
    are in proportion to s[:m], each twice (the border), and s[m:] (G on the
    border's orthogonal complement), scaled so that F's first column is all
    ones, as in every kriging system."""
    V, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, n - 1))]))
    G = (V[:, m:] * (s[m:] * rng.choice([-1.0, 1.0], n - m))) @ V[:, m:].T
    A = np.zeros((n + m, n + m))
    A[:n, :n] = (G + G.T) / 2
    A[:n, n:] = V[:, :m] * s[:m]
    A[n:, :n] = A[:n, n:].T
    # V's first column is +-1/sqrt(n) to rounding: scale it to ones exactly
    A /= A[0, n]
    A[:n, n] = A[n, :n] = 1.0
    return A


def _centred_stack(model, offsets, degree):
    """The target-centred kriging systems (A, b) of sample offsets (L, n, 2),
    in the one form as _krige_chunk assembles them: the model at unit sill,
    and the x/y drift columns divided by each system's largest distance."""
    L, n, _ = offsets.shape
    unit = VariogramModel(
        model.kind, model.nugget / model.sill, model.partial_sill / model.sill, model.range_
    )
    dist = np.hypot(offsets[..., 0], offsets[..., 1])
    F = np.ones((L, n, 1))
    if degree == 1:
        F = np.concatenate([F, offsets / dist.max(axis=1)[:, None, None]], axis=2)
    A = interpolate._bordered(unit, offsets, F)
    b = np.zeros((L, n + F.shape[2]))
    b[:, :n] = model_gamma(unit, dist)
    b[:, n] = 1.0
    return A, b


_SPREAD = re.compile(r"spread ratio (\S+) <")


def _assert_same_failures(failed, want):
    """failed == want, but for the spread ratio of a collinear border, which
    the closed form gives to within about 3e-8 of the SVD's (the rounding of
    its scatter matrix, relative u, is a square's)."""
    assert failed.keys() == want.keys()
    for j, why in failed.items():
        got, ref = _SPREAD.search(why), _SPREAD.search(want[j])
        assert (got is None) == (ref is None), (why, want[j])
        if got:
            r, r_ref = float(got[1]), float(ref[1])
            assert abs(r - r_ref) <= 0.05 * r_ref + 3e-8, (why, want[j])
            why = why.replace(got[0], ref[0])
        assert why == want[j]


@pytest.mark.parametrize("r", [0.0, 1e-7, 1e-4, 5.5e-4, 6.5e-4, 1e-2, 0.5])
@pytest.mark.parametrize("turn", [0.0, 1.0, 2.0])
def test_spread_ratio_matches_the_svd(r, turn):
    # samples along a line with an alternating offset of relative size r
    # (spread ratio about 1.65 r, so 5.5e-4 and 6.5e-4 fall either side of
    # the limit), turned by `turn` radians and moved off the origin: the
    # closed form agrees with the SVD to its rounding, and both place the
    # border against the limit alike
    t = np.linspace(-1.0, 1.0, 20)
    xy = np.column_stack([t, r * (-1.0) ** np.arange(20)])
    c, s = math.cos(turn), math.sin(turn)
    xy = xy @ np.array([[c, s], [-s, c]]) + [412.0, -5398.0]
    got = interpolate._spread_ratio(xy.T[None])[0]
    want = spread_ratio_reference(xy[None])[0]
    assert abs(got - want) <= 1e-6 * want + 3e-8
    assert (got < interpolate._SPREAD_LIMIT) == (want < 1e-3) == (r < 6e-4)


def test_stacked_lapack_fails_one_system_alone():
    # numpy's private gufuncs behind np.linalg.solve and np.linalg.cholesky:
    # a failed system is a NaN row, with no exception and no warning
    from numpy.linalg import _umath_linalg

    rng = np.random.default_rng(5)
    B = rng.normal(size=(3, 6, 6))
    A = B @ B.transpose(0, 2, 1) + 6.0 * np.eye(6)
    A[1, 3, :] = A[1, :, 3] = 0.0  # exactly singular: a zero row and column
    A[2] *= -1.0  # negative definite, but regular
    b = rng.normal(size=(3, 6, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = interpolate._lapack(_umath_linalg.solve, A, b)
        chol = interpolate._lapack(_umath_linalg.cholesky_lo, A)
    assert sol.shape == b.shape and chol.shape == A.shape
    assert np.isnan(sol[1]).all() and not np.isnan(sol[[0, 2]]).any()
    assert np.isnan(chol[1:]).all() and not np.isnan(chol[0]).any()
    assert np.array_equal(sol[[0, 2]], np.linalg.solve(A[[0, 2]], b[[0, 2]]))
    assert np.array_equal(chol[0], np.linalg.cholesky(A[0]))


class TestConditionBound:
    """_solve_or_fail's rule against the same rule by numpy's SVD alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.sampled_from([4, 19, 200]),
        three_drift_terms=st.booleans(),
        log_conds=st.lists(st.floats(0.0, 17.0), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decides_like_the_svd_rule(self, w, three_drift_terms, log_conds, seed):
        rng = np.random.default_rng(seed)
        m = 3 if three_drift_terms and w > 4 else 1
        n = w - m
        stack = []
        for log_cond in log_conds:
            s = 10.0 ** rng.uniform(0.0, log_cond, n)
            s[:2] = 1.0, 10.0**log_cond
            stack.append(_bordered_with_singular_values(rng, n, m, rng.permutation(s)))
        A = np.array(stack)
        b = rng.normal(size=(len(A), w))
        targets = [[float(j), 0.5] for j in range(len(A))]
        ok, sol, value, failed = interpolate._solve_or_fail(A, b, m, targets)
        want_ok, want_sol, svd_cond, want_failed = solve_or_fail_reference(A, b, m, targets)
        assert np.array_equal(ok, want_ok)
        _assert_same_failures(failed, want_failed)
        assert np.array_equal(sol, want_sol)
        # a passing system's value bounds its condition number from above
        assert np.all(value[ok] >= svd_cond[ok] * (1 - 1e-6))

    def test_border_test_runs_before_lu(self, monkeypatch):
        rng = np.random.default_rng(12)
        t = rng.uniform(-5, 5, 16)
        pair = np.vstack([rng.uniform(-5, 5, (14, 2)), [[1.0, 1.0], [1.0 + 1e-6, 1.0]]])
        gaussian = VariogramModel("gaussian", 0.0, 2.0, 50.0)
        systems = {
            "regular": (SPH, rng.uniform(-5, 5, (16, 2))),
            # on the line y = 0: a zero drift column, so LU raises
            "collinear": (SPH, np.column_stack([t, np.zeros(16)])),
            # on y = x / 3: LU solves it
            "nearly collinear": (SPH, np.column_stack([t, t / 3])),
            # a full-rank border, but two samples a micrometre apart
            "ill-conditioned": (gaussian, pair),
            "regular too": (SPH, rng.uniform(-5, 5, (16, 2))),
        }
        built = {}
        for name, (model, d) in systems.items():
            A, b = _centred_stack(model, d[None], 1)
            built[name] = A[0], b[0]
        A, _ = built["collinear"]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, np.ones(len(A)))
        A, b = built["nearly collinear"]
        np.linalg.solve(A, b)

        from numpy.linalg import _umath_linalg

        solved = []
        lapack = interpolate._lapack

        def count(gufunc, *stacks, out=None):
            if gufunc is _umath_linalg.solve:
                solved.append(len(stacks[0]))
            return lapack(gufunc, *stacks, out=out)

        monkeypatch.setattr(interpolate, "_lapack", count)
        names = ["regular", "collinear", "nearly collinear", "ill-conditioned", "regular too"]
        A = np.array([built[name][0] for name in names])
        b = np.array([built[name][1] for name in names])
        targets = [[float(j), 0.5] for j in range(len(A))]
        tally = {"border": 0, "certified": 0, "svd": 0}
        ok, sol, value, failed = interpolate._solve_or_fail(A, b, 3, targets, tally)
        # both collinear borders fail before the one batched LU, which
        # solves the other three systems
        assert solved == [3]
        assert tally == {"border": 2, "certified": 2, "svd": 1}
        want_ok, want_sol, svd_cond, want_failed = solve_or_fail_reference(A, b, 3, targets)
        assert ok.tolist() == [name.startswith("regular") for name in names]
        assert np.array_equal(ok, want_ok)
        _assert_same_failures(failed, want_failed)
        assert np.array_equal(sol, want_sol)
        assert np.array_equal(np.isnan(value), np.isnan(svd_cond))
        assert np.all(value[ok] >= svd_cond[ok] * (1 - 1e-6))
        for j, name in enumerate(names):
            if "collinear" in name:
                assert failed[j].startswith("collinear drift border") and np.isnan(value[j])
            if name == "ill-conditioned":
                assert "ill-conditioned" in failed[j] and value[j] == svd_cond[j]
                assert failed[j].endswith("; the variogram produced a singular coefficient block")


class TestFactorCertificate:
    """_factor_bound, the certificate from two Cholesky factors, inside
    _solve_or_fail against the SVD rule."""

    @staticmethod
    def _offsets(rng, geometry, k):
        d = rng.uniform(-10.0, 10.0, (k, 2))
        if geometry == "nearly collinear":
            t = rng.uniform(-10.0, 10.0, k)
            off = 10.0 ** -rng.uniform(1.0, 9.0) * rng.normal(size=k)
            d = np.column_stack([t, 0.3 * t + off])
        elif geometry == "micrometre pair":
            d[-1] = d[0] + [1e-6, 0.0]
        return d

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(MODEL_KINDS),
        nugget=st.sampled_from([0.0, 0.2]),
        log_sill=st.floats(-2.0, 6.0),
        log_range=st.floats(0.0, 2.5),
        degree=st.sampled_from([0, 1]),
        k=st.integers(4, 24),
        geometries=st.lists(
            st.sampled_from(["scatter", "nearly collinear", "micrometre pair"]),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decides_like_the_svd_rule_on_kriging_stacks(
        self, kind, nugget, log_sill, log_range, degree, k, geometries, seed
    ):
        rng = np.random.default_rng(seed)
        sill = 10.0**log_sill
        model = VariogramModel(kind, nugget * sill, (1.0 - nugget) * sill, 10.0**log_range)
        offsets = np.array([self._offsets(rng, g, k) for g in geometries])
        A, b = _centred_stack(model, offsets, degree)
        m = A.shape[1] - k
        targets = [[float(j), 0.5] for j in range(len(A))]
        tally = {"border": 0, "certified": 0, "svd": 0}
        ok, sol, value, failed = interpolate._solve_or_fail(A, b, m, targets, tally)
        want_ok, want_sol, svd_cond, want_failed = solve_or_fail_reference(A, b, m, targets)
        assert np.array_equal(ok, want_ok)
        _assert_same_failures(failed, want_failed)
        assert np.array_equal(sol, want_sol)
        assert np.all(value[ok] >= svd_cond[ok] * (1 - 1e-6))
        # what the factors clear, they clear with a bound on the exact cond
        bound = interpolate._factor_bound(A, m)
        cleared = bound <= interpolate._BOUND_LIMIT
        assert np.all(bound[cleared] >= np.linalg.cond(A[cleared]))
        assert tally["certified"] == np.count_nonzero(cleared & ok)

    def test_factors_clear_what_the_inverse_cleared(self, monkeypatch):
        # k = 8 gives the demo 219 vertices with nearly collinear samples:
        # their borders fail (spread ratio 5.7e-7) before the factors run,
        # and the inverse-based bound the factors replaced clears the other
        # systems as the factors do
        cfg = PipelineConfig.from_mapping({})
        prepared = prepare_samples(cfg)
        planar, _, _ = build_planar_mesh(cfg)
        model, _ = variogram_model(cfg, prepared)
        xy, z = prepared.utm.coords(), prepared.utm.altitudes()
        stacks = []
        factor_bound = interpolate._factor_bound
        monkeypatch.setattr(
            interpolate, "_factor_bound",
            lambda A, m: stacks.append((A, factor_bound(A, m))) or stacks[-1][1],
        )
        _, errors, _ = interpolate._krige(KrigingSystem(xy, z, model, 1, 8), planar.vertices)
        monkeypatch.undo()
        assert len(errors) == 219
        assert all(why.startswith("collinear drift border") for why in errors.values())
        inverse_cleared = factors_cleared = 0
        for A, bound in stacks:
            by_inverse = cond_bound_reference(A) <= interpolate._BOUND_LIMIT
            assert np.all(bound[by_inverse] <= interpolate._BOUND_LIMIT)
            inverse_cleared += by_inverse.sum()
            factors_cleared += (bound <= interpolate._BOUND_LIMIT).sum()
        assert inverse_cleared == factors_cleared == 4592 - 219

    @staticmethod
    def _stack(pair_gaps):
        """Degree-1 spherical systems of 16 samples, the last two samples of
        system j pair_gaps[j] apart (None: scattered)."""
        rng = np.random.default_rng(12)
        offsets = rng.uniform(-5.0, 5.0, (len(pair_gaps), 16, 2))
        for d, gap in zip(offsets, pair_gaps):
            if gap is not None:
                d[-1] = d[-2] + [gap, 0.0]
        return _centred_stack(VariogramModel("spherical", 0.0, 2.0, 50.0), offsets, 1)

    def _solve_counting_factors(self, A, b, monkeypatch):
        sizes = []
        completes = interpolate._chol_completes

        def count(B, shift):
            if B.shape[1] == 16:  # a factor of K, not of F^T F (3 x 3)
                sizes.append(len(B))
            return completes(B, shift)

        monkeypatch.setattr(interpolate, "_chol_completes", count)
        targets = [[float(j), 0.5] for j in range(len(A))]
        tally = {"border": 0, "certified": 0, "svd": 0}
        got = interpolate._solve_or_fail(A, b, 3, targets, tally)
        monkeypatch.undo()
        ok, sol, value, failed = got
        want_ok, want_sol, svd_cond, want_failed = solve_or_fail_reference(A, b, 3, targets)
        assert np.array_equal(ok, want_ok) and ok.all()
        assert failed == want_failed == {}
        assert np.array_equal(sol, want_sol)
        assert np.all(value >= svd_cond)
        return sizes, tally, value, svd_cond

    def test_factor_completes_where_numpy_cholesky_succeeds(self):
        # the F^T F factor (3 x 3) goes through the same routine as K's; a
        # NaN can pass LAPACK's pivot test and come out in the factor, so
        # success is a factor without an exception, with a finite positive
        # diagonal
        rng = np.random.default_rng(64)
        F = np.concatenate([np.ones((8, 16, 1)), rng.uniform(-10, 10, (8, 16, 2))], axis=2)
        P = np.matmul(F.transpose(0, 2, 1), F)
        lmin = np.linalg.eigvalsh(P)[:, 0]
        shift = lmin / 2
        shift[[1, 4]] = 1.5 * lmin[[1, 4]]  # past the smallest eigenvalue
        P[5, 2, 1] = P[5, 1, 2] = np.nan
        P[6, 0, 0] = np.nan
        want = []
        for B, c in zip(P, shift):
            try:
                diag = np.diag(np.linalg.cholesky(B - c * np.eye(3)))
            except np.linalg.LinAlgError:
                diag = np.array([np.nan])
            want.append(bool(np.all(np.isfinite(diag) & (diag > 0))))
        assert want == [True, False, True, True, False, False, False, True]
        assert interpolate._chol_completes(P, shift).tolist() == want

    def test_slab_mates_keep_their_bounds_beside_a_failed_factor(self, monkeypatch):
        # a pair 1 cm apart puts lmin(K) near 3e-4 at unit sill, under the
        # shift 1/1024: that system's factor fails, and it alone goes to the
        # SVD
        A, b = self._stack([None, None, 0.01, None])
        sizes, tally, value, svd_cond = self._solve_counting_factors(A, b, monkeypatch)
        assert sizes == [4]
        assert tally == {"border": 0, "certified": 3, "svd": 1}
        assert value[2] == svd_cond[2]
        # the others keep the bounds they get in a slab without it, far
        # under the limit
        mates = [0, 1, 3]
        alone = interpolate._factor_bound(A[mates], 3)
        assert np.array_equal(value[mates], alone)
        assert np.all(alone < 1e7)

    def test_system_without_a_covariance_factor_goes_to_the_svd(self, monkeypatch):
        # G -> 2J - G makes K = -K(before): negative definite, while A keeps
        # its null-space block Z^T K Z and its good conditioning
        A, b = self._stack([None, None, None, None, None])
        n = 16
        A[3, :n, :n] = 2.0 - A[3, :n, :n]
        sizes, tally, value, svd_cond = self._solve_counting_factors(A, b, monkeypatch)
        # one factorisation of the whole slab
        assert sizes == [5]
        assert tally == {"border": 0, "certified": 4, "svd": 1}
        assert value[3] == svd_cond[3]


class TestGlobalNeighbourhood:
    """One shared dual-form system against the per-target solves."""

    @pytest.mark.parametrize("degree", [0, 1])
    def test_lift_matches_per_vertex_reference(self, degree, caplog):
        model = VariogramModel("spherical", 0.2, 2.0, 60.0)
        rng = np.random.default_rng(20 + degree)
        xy = rng.uniform(0, 100, (200, 2))
        z = 400.0 + 0.05 * xy[:, 0] - 0.03 * xy[:, 1] + rng.uniform(0, 5, 200)
        # the last 12 targets sit on samples (the mesh keeps the input order)
        targets = np.vstack([rng.uniform(-5, 105, (60, 2)), xy[:12]])
        planar = delaunay_triangulate(targets)
        with caplog.at_level(logging.DEBUG, logger="dsmkit.interpolate"):
            lifted, summary = lift_mesh(planar, _utm_pointset(xy, z), UkConfig(model, degree, None))
        want, fallbacks = uk_lift_reference(xy, z, model, degree, None, targets)
        assert fallbacks == [] and summary.fallback_vertices == ()
        assert np.max(np.abs(lifted.vertices[:, 2] - want)) <= 1e-8
        assert np.array_equal(lifted.vertices[60:, 2], z[:12])
        notes = [r.getMessage() for r in caplog.records if r.getMessage().startswith("uk lift:")]
        assert len(notes) == 1
        assert "200 samples, 72 vertices, global" in notes[0]
        scanned = re.fullmatch(r".*, 0 fallbacks, (\d+) kNN candidates scanned", notes[0])
        assert scanned and int(scanned[1]) >= 72

        # a neighbourhood of at least n samples is the same global system
        pred = uk_predict(KrigingSystem(xy, z, model, degree, 500), targets)
        assert np.max(np.abs(pred - want)) <= 1e-8
        assert np.array_equal(pred[60:], z[:12])

    def test_predict_matches_uk_solve_at_utm_offsets(self):
        offset = np.array([412000.0, 5398000.0])
        rng = np.random.default_rng(23)
        xy = rng.uniform(0, 300, (150, 2)) + offset
        z = rng.uniform(380, 460, 150)
        sys = KrigingSystem(xy, z, VariogramModel("exponential", 0.5, 30.0, 150.0), 1, None)
        targets = np.vstack([rng.uniform(-20, 320, (40, 2)) + offset, xy[:3]])
        single = np.array([uk_solve(sys, t).prediction for t in targets])
        pred = uk_predict(sys, targets)
        assert np.max(np.abs(pred - single)) <= 1e-8
        assert np.array_equal(pred[-3:], z[:3])

    @pytest.mark.parametrize("nugget, sill, range_", [(0.0, 4.0, 1.0), (1.0, 5.0, 100.0)])
    def test_one_row_fails_like_the_references(self, nugget, sill, range_, monkeypatch):
        # ROADMAP 1(a): 200 samples along one parallel. The one global system
        # (width 203) fails by its collinear drift border, not by the
        # variogram, and the SVD reference fails it alike; so does the
        # target-centred system that uk_solve builds
        lat, lon = np.full(200, 48.7242), 7.3368 + 0.0036 * np.arange(200) / 199
        xy = np.column_stack(utm_forward(lat, lon, 32, "north"))
        z = 400.0 + np.arange(200) % 7
        model = VariogramModel("spherical", nugget, sill, range_)
        target = xy[50] + [0.3, 0.0]
        stacks = []
        solve_or_fail = interpolate._solve_or_fail
        monkeypatch.setattr(
            interpolate, "_solve_or_fail", lambda *a: stacks.append(a) or solve_or_fail(*a)
        )
        with pytest.raises(
            NumericalError,
            match=r"^target 0: collinear drift border in the kriging system over all "
            r"samples: spread ratio 6\.1e-06 < 0\.001$",
        ):
            uk_predict(KrigingSystem(xy, z, model, 1, None), [target])
        monkeypatch.undo()
        ((A, b, m, targets),) = stacks
        assert A.shape == (1, 203, 203)
        ok, _, _, failed = solve_or_fail(A, b, m, targets)
        want_ok, _, _, want_failed = solve_or_fail_reference(A, b, m, targets)
        assert not ok[0] and not want_ok[0]
        _assert_same_failures(failed, want_failed)
        with pytest.raises(NumericalError, match=r"^collinear drift border .* at target"):
            uk_solve(KrigingSystem(xy, z, model, 1, None), target)

    def test_collinear_samples_name_drift_term(self):
        locs = np.column_stack([np.linspace(0, 10, 6), np.linspace(0, 20, 6)])
        sys = KrigingSystem(locs, np.arange(6.0), SPH, drift_degree=1, neighborhood=None)
        assert uk_predict(sys, [locs[2]])[0] == 2.0
        with pytest.raises(NumericalError, match=r"^target 1: collinear drift border"):
            uk_predict(sys, [locs[2], (5.0, 5.0)])

    def test_singular_system_aborts_lift(self):
        # the micrometre cluster's semivariogram rows are exactly equal, so
        # the one shared system is singular and every vertex fails
        rng = np.random.default_rng(9)
        gx, gy = np.meshgrid(np.arange(3) * 1e-6, np.arange(3) * 1e-6)
        xy = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), rng.uniform(5e3, 6e3, (60, 2))])
        z = rng.uniform(0, 10, len(xy))
        model = VariogramModel("gaussian", 0.0, 2.0, 1e3)
        planar = delaunay_triangulate(rng.uniform(5e3, 6e3, (40, 2)))
        with pytest.raises(NumericalError, match="kriging failed at 40 of 40 vertices"):
            lift_mesh(planar, _utm_pointset(xy, z), UkConfig(model, 0, None))
        with pytest.raises(NumericalError, match="^target 0: .*singular coefficient block"):
            uk_predict(KrigingSystem(xy, z, model, 0, None), planar.vertices)

    def test_ill_conditioned_system_fails_every_target(self, caplog):
        sys, targets = _micrometre_pair(None)
        on_sample = sys.locations[5]
        assert uk_predict(sys, [on_sample])[0] == sys.values[5]
        with pytest.raises(
            NumericalError,
            match=r"^target 1: ill-conditioned kriging system over all samples: cond \S+ > 1e\+12",
        ):
            uk_predict(sys, [on_sample, targets[1]])
        planar = delaunay_triangulate(np.vstack([targets, [on_sample]]))
        with caplog.at_level(logging.WARNING, logger="dsmkit.interpolate"):
            with pytest.raises(
                NumericalError,
                match=r"^kriging failed at 3 of 4 vertices \(first: \[0, 1, 2\]\); "
                r"vertex 0: ill-conditioned kriging system over all samples",
            ):
                lift_mesh(planar, _utm_pointset(sys.locations, sys.values),
                          UkConfig(sys.model, 1, None))
        assert not any("ill-conditioned" in r.getMessage() for r in caplog.records)
