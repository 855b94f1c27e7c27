"""Variogram tests: Matheron estimator, model branches, self-fit recovery."""

import logging
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _wls_for_range_reference,
    empirical_variogram_reference,
    fit_model_reference,
    model_gamma_reference,
    spherical_gamma,
)
from dsmkit import variogram
from dsmkit.acquisition import PointSet, UtmCrs
from dsmkit.errors import ConfigError, DataError
from dsmkit.geodesy import UtmPoint
from dsmkit.variogram import (
    MODEL_KINDS,
    ExperimentalVariogram,
    VariogramModel,
    empirical_variogram,
    fit_model,
    model_gamma,
)

CRS = UtmCrs(32, "north")


def _utm_samples(xy, z):
    pts = [
        UtmPoint(400000.0 + float(x), 5000000.0 + float(y), 32, "north", float(v))
        for (x, y), v in zip(xy, z)
    ]
    return PointSet(pts, CRS)


class TestEmpiricalVariogram:
    def test_two_samples_hand_value(self):
        # gamma = (3 - 1)^2 / 2 = 2 for the single unit-distance pair
        ps = _utm_samples([(0, 0), (1, 0)], [1.0, 3.0])
        ev = empirical_variogram(ps, max_lag=2.0, n_bins=2)
        assert len(ev) == 1
        assert ev.gammas[0] == pytest.approx(2.0, abs=1e-12)
        assert ev.pair_counts[0] == 1

    def test_constant_field_all_zero(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 100, size=(40, 2))
        ps = _utm_samples(xy, np.full(40, 5.0))
        ev = empirical_variogram(ps, max_lag=150.0, n_bins=10)
        assert np.all(ev.gammas == 0.0)

    def test_line_unit_spacing_lag_one(self):
        # z = x on a line: adjacent pairs differ by 1 -> gamma = 0.5
        xy = [(float(i), 0.0) for i in range(10)]
        ps = _utm_samples(xy, [float(i) for i in range(10)])
        ev = empirical_variogram(ps, max_lag=1.5, n_bins=1)
        assert len(ev) == 1
        assert ev.pair_counts[0] == 9
        assert ev.gammas[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        xy = rng.uniform(0, 200, size=(60, 2))
        z = rng.normal(size=60)
        max_lag, n_bins = 150.0, 8
        ps = _utm_samples(xy, z)
        ev = empirical_variogram(ps, max_lag, n_bins)

        width = max_lag / n_bins
        sums = np.zeros(n_bins)
        counts = np.zeros(n_bins, dtype=int)
        for i in range(len(xy)):
            for j in range(i + 1, len(xy)):
                d = float(np.hypot(*(xy[i] - xy[j])))
                if d < max_lag:
                    b = int(d // width)
                    sums[b] += (z[i] - z[j]) ** 2
                    counts[b] += 1
        filled = counts > 0
        assert np.array_equal(ev.pair_counts, counts[filled])
        assert np.allclose(ev.gammas, sums[filled] / (2 * counts[filled]), rtol=1e-12)

    def test_shift_invariance_and_scaling(self):
        rng = np.random.default_rng(23)
        xy = rng.uniform(0, 50, size=(30, 2))
        z = rng.normal(size=30)
        base = empirical_variogram(_utm_samples(xy, z), 60.0, 6)
        shifted = empirical_variogram(_utm_samples(xy, z + 100.0), 60.0, 6)
        scaled = empirical_variogram(_utm_samples(xy, 3.0 * z), 60.0, 6)
        assert np.allclose(base.gammas, shifted.gammas, rtol=1e-9, atol=1e-12)
        assert np.allclose(9.0 * base.gammas, scaled.gammas, rtol=1e-9)

    def test_all_pairs_beyond_max_lag(self):
        ps = _utm_samples([(0, 0), (500, 0)], [1.0, 2.0])
        with pytest.raises(DataError):
            empirical_variogram(ps, max_lag=10.0, n_bins=5)

    # max_lag / n_bins is 0 or subnormal
    @pytest.mark.parametrize("max_lag, n_bins", [(5e-324, 15), (1e-307, 100)])
    def test_bin_width_below_the_normal_range_rejected(self, max_lag, n_bins):
        ps = _utm_samples([(0, 0), (1, 0)], [1.0, 3.0])
        with pytest.raises(ConfigError):
            empirical_variogram(ps, max_lag, n_bins)

    def test_wgs84_samples_rejected(self):
        from dsmkit.acquisition import WGS84
        from dsmkit.geodesy import GeoPoint

        ps = PointSet([GeoPoint(48.7, 7.3, 100.0), GeoPoint(48.8, 7.4, 120.0)], WGS84)
        with pytest.raises(DataError):
            empirical_variogram(ps, max_lag=1.0, n_bins=3)


def _assert_matches_row_loop(ps, max_lag, n_bins):
    ev = empirical_variogram(ps, max_lag, n_bins)
    lags, gammas, counts = empirical_variogram_reference(ps, max_lag, n_bins)
    assert np.array_equal(ev.pair_counts, counts)
    assert np.array_equal(ev.gammas, gammas)
    assert np.array_equal(ev.lags, lags)
    return ev


def _reordered(ps, order):
    return PointSet.from_arrays(ps.x[order], ps.y[order], ps.z[order], ps.crs)


# usable CPUs, the last more than any input here has blocks
WORKERS = [1, 2, 3, 1000]


def _split(monkeypatch, budget, workers):
    """Bin in blocks of at most `budget` cells (a longer row alone), cut into
    one run for each of `workers` CPUs however few the pairs."""
    monkeypatch.setattr(variogram, "_BLOCK_PAIRS", budget)
    monkeypatch.setattr(variogram, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(variogram, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(variogram, "_THREAD_PAIRS", 1)


class TestAgainstRowLoop:
    """Bit-for-bit agreement with the masked per-sample scan over every pair."""

    @pytest.fixture(scope="class")
    def demo(self):
        from dsmkit.pipeline import PipelineConfig, prepare_samples

        cfg = PipelineConfig.from_mapping({})
        samples = prepare_samples(cfg)
        max_lag = 0.5 * np.hypot(cfg.mesh_region.width, cfg.mesh_region.height)
        return samples.utm, max_lag

    def test_demo_samples(self, demo):
        ps, max_lag = demo
        _assert_matches_row_loop(ps, max_lag, 15)

    def test_shuffled_demo_samples(self, demo):
        ps, max_lag = demo
        order = np.random.default_rng(11).permutation(len(ps))
        _assert_matches_row_loop(_reordered(ps, order), max_lag, 15)

    def test_ascending_northing(self, demo):
        ps, max_lag = demo
        _assert_matches_row_loop(_reordered(ps, np.argsort(ps.y, kind="stable")), max_lag, 15)

    # 7.001: pairs one row spacing short of max_lag in northing are in range
    @pytest.mark.parametrize("max_lag, n_bins", [(8.0, 8), (5.0, 5), (12.0, 3), (7.001, 7)])
    def test_integer_lattice_pairs_on_bin_edges(self, max_lag, n_bins):
        # many pairs sit exactly on a bin edge or at exactly max_lag
        gx, gy = np.meshgrid(np.arange(13.0), np.arange(11.0))
        z = np.random.default_rng(5).normal(size=gx.size)
        ps = _utm_samples(np.column_stack([gx.ravel(), gy.ravel()]), z)
        ev = _assert_matches_row_loop(ps, max_lag, n_bins)
        assert ev.pair_counts.sum() > 0

    def test_masked_path(self):
        # fl(max_lag / width) < n_bins: a pair at exactly max_lag has
        # trunc(d / width) == n_bins - 1, and only the d < max_lag mask drops it
        max_lag, n_bins = 18 * 0.1, 7
        assert max_lag / (max_lag / n_bins) < n_bins
        rng = np.random.default_rng(9)
        x, y = np.concatenate([rng.uniform(0, 3, size=(40, 2)), [[0.0, 0.0], [max_lag, 0.0]]]).T
        ps = PointSet.from_arrays(x, y, rng.normal(size=len(x)), CRS)
        ev = _assert_matches_row_loop(ps, max_lag, n_bins)
        # of these three pairs only the 0.1 m one is within max_lag
        three = PointSet.from_arrays([0.0, max_lag, 0.0], [0.0, 0.0, 0.1], [0.0, 1.0, 3.0], CRS)
        assert _assert_matches_row_loop(three, max_lag, n_bins).pair_counts.tolist() == [1]
        assert ev.pair_counts.sum() > 0

    def test_quotient_on_an_edge_where_sqrt_and_hypot_differ(self):
        # a pair whose sqrt(dx^2 + dy^2) is below np.hypot(dx, dy): with
        # width = hypot / 4 the hypot quotient is exactly 4, the sqrt one
        # just below it, and the bin must be 4
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x0, y0 = 400000.0 + rng.uniform(0, 100), 5000000.0 + rng.uniform(0, 100)
            x1, y1 = x0 + rng.uniform(1, 100), y0 + rng.uniform(1, 100)
            dx, dy = x1 - x0, y1 - y0
            if np.sqrt(dx * dx + dy * dy) < np.hypot(dx, dy):
                break
        else:
            pytest.skip("no pair where sqrt and hypot differ")
        width = np.hypot(dx, dy) / 4
        ps = PointSet(
            [UtmPoint(x0, y0, 32, "north", 0.0), UtmPoint(x1, y1, 32, "north", 2.0)], CRS
        )
        ev = _assert_matches_row_loop(ps, 8 * width, 8)
        assert ev.lags.tolist() == [4.5 * width]

    @pytest.mark.parametrize("workers", WORKERS)
    def test_coordinates_near_1e200(self, monkeypatch, workers):
        _split(monkeypatch, 64, workers)
        # a lattice at 1e200 with pairs on every bin edge, and the same
        # lattice near the origin: its pairs with the far one square to inf
        gx, gy = np.meshgrid(np.arange(6.0), np.arange(5.0))
        far = 1e200 + 2.5e199 * np.column_stack([gx.ravel(), gy.ravel()])
        near = np.column_stack([gx.ravel(), gy.ravel()])
        z = np.random.default_rng(31).normal(size=2 * gx.size)
        for xy, max_lag, n_bins in [(far, 1e200, 4), (np.vstack([far, near]), 3.0, 6)]:
            x, y = xy.T
            ps = PointSet.from_arrays(x, y, z[: len(x)], CRS)
            assert _assert_matches_row_loop(ps, max_lag, n_bins).pair_counts.sum() > 0

    def test_bin_width_near_1e_169(self):
        width, n_bins = 3e-169, 15
        gx, gy = np.meshgrid(np.arange(7.0), np.arange(6.0))
        rng = np.random.default_rng(37)
        xy = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]) * width,
                        rng.uniform(0, 10 * width, size=(30, 2))])
        ps = PointSet.from_arrays(xy[:, 0], xy[:, 1], rng.normal(size=len(xy)), CRS)
        assert _assert_matches_row_loop(ps, n_bins * width, n_bins).pair_counts.sum() > 0

    def test_sweep_where_max_lag_over_width_rounds_below_n_bins(self):
        # fl(max_lag / width) < n_bins: a pair at exactly d = max_lag has
        # trunc(d / width) == n_bins - 1, and only d < max_lag drops it
        rng = np.random.default_rng(41)
        tried = 0
        while tried < 25:
            max_lag, n_bins = rng.uniform(10.0, 2000.0), int(rng.integers(2, 30))
            width = max_lag / n_bins
            if not max_lag / width < n_bins:
                continue
            tried += 1
            edges = np.arange(n_bins + 2) * width
            x = np.concatenate([edges, [max_lag, 0.0], rng.uniform(0, max_lag, 30)])
            y = np.concatenate([np.zeros(n_bins + 2), [0.0, max_lag], rng.uniform(0, max_lag, 30)])
            ps = PointSet.from_arrays(x, y, rng.normal(size=len(x)), CRS)
            _assert_matches_row_loop(ps, max_lag, n_bins)


def _redo_log(caplog):
    """(samples, scanned, binned, redone) from empirical_variogram's last
    debug line."""
    lines = [r.getMessage() for r in caplog.records if r.name == "dsmkit.variogram"]
    m = re.fullmatch(
        r"variogram: (\d+) samples, (\d+) pairs scanned, (\d+) binned, "
        r"(\d+) redone with np\.hypot",
        lines[-1],
    )
    return tuple(int(g) for g in m.groups())


class TestFloat32Bound:
    """Inputs built to break a float32 kernel whose redo margin or overflow
    handling is wrong; each must equal the float64 np.hypot scan."""

    @pytest.mark.parametrize("ulps", range(1, 9))
    def test_utm_lattice_quotients_within_float32_ulps_of_integers(self, caplog, ulps):
        # width = spacing * (1 + ulps * 2**-24): a pair m lattice steps apart
        # has a quotient m / (1 + ulps * 2**-24), between ulps / 2 and ulps
        # float32 ulps below the integer m; so do 3-4-5 and 5-12-13 pairs
        spacing, n_bins = 1.25, 12
        gx, gy = np.meshgrid(np.arange(14.0), np.arange(14.0))
        x = 4e5 + spacing * gx.ravel()
        y = 5.4e6 + spacing * gy.ravel()
        z = np.random.default_rng(ulps).normal(size=x.size)
        width = spacing * (1.0 + ulps * 2.0**-24)
        caplog.set_level(logging.DEBUG, logger="dsmkit.variogram")
        ev = _assert_matches_row_loop(PointSet.from_arrays(x, y, z, CRS), n_bins * width, n_bins)
        assert ev.pair_counts.sum() > 0
        assert _redo_log(caplog)[3] > 0

    @pytest.mark.parametrize("workers", WORKERS)
    def test_float32_overflow_of_a_scaled_coordinate(self, monkeypatch, workers):
        # one block per row, so that with workers the overflows happen in
        # a worker thread, under its own numpy error state
        _split(monkeypatch, 1, workers)
        # With width 2**-100 the centred, scaled x of a and b is 2**128 -
        # 2**103, which rounds to float32 inf, and that of c is 2**75 lower,
        # which rounds to the largest float32: a and b are 3 widths apart
        # (a NaN difference in float32), a and c straddle the overflow.
        width = 2.0**-100
        xa = (2.0**128 - 2.0**103) * width
        xc = (2.0**128 - 2.0**103 - 2.0**75) * width
        x = np.array([-xa, xa, xa, xc])
        y = np.array([0.0, 0.0, 3 * width, 0.0])
        ps = PointSet.from_arrays(x, y, [0.0, 1.0, 4.0, 2.0], CRS)
        with np.errstate(over="ignore"):
            assert np.isinf(np.float32(xa / width)) and np.isfinite(np.float32(xc / width))
        ev = _assert_matches_row_loop(ps, 15 * width, 15)
        assert ev.pair_counts.tolist() == [1] and ev.lags.tolist() == [3.5 * width]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        x0=st.floats(-1e7, 1e7),
        y0=st.floats(-1e7, 1e7),
        width=st.floats(1e-3, 1e3),
        n_bins=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_against_the_hypot_scan(self, n, x0, y0, width, n_bins, seed):
        # half the samples on a lattice of bin widths, so many pairs sit on
        # or next to a bin edge; the rest uniform over the same square
        rng = np.random.default_rng(seed)
        side = n_bins + 2
        k = n // 2
        xy = np.vstack([rng.integers(0, side, size=(k, 2)) * width,
                        rng.uniform(0, side * width, size=(n - k, 2))])
        xy = xy[rng.permutation(n)] + [x0, y0]
        ps = PointSet.from_arrays(xy[:, 0], xy[:, 1], rng.normal(size=n), CRS)
        max_lag = n_bins * width
        if empirical_variogram_reference(ps, max_lag, n_bins)[2].size:
            _assert_matches_row_loop(ps, max_lag, n_bins)
        else:
            with pytest.raises(DataError):
                empirical_variogram(ps, max_lag, n_bins)


class TestBlocks:
    """Rows are binned in blocks of at most _BLOCK_PAIRS rectangle cells,
    cut into one run per usable CPU; every block split and every number of
    runs must give the hypot scan's counts and gammas."""

    @pytest.fixture(params=[1, 5, 64, 1 << 15, 1 << 16])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(variogram, "_BLOCK_PAIRS", request.param)
        monkeypatch.setattr(variogram, "_BLOCK_ROWS", 1)
        return request.param

    @pytest.fixture(autouse=True, params=WORKERS)
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(variogram, "_usable_cpus", lambda: request.param)
        monkeypatch.setattr(variogram, "_THREAD_PAIRS", 1)
        return request.param

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_and_three_samples(self, budget, n):
        x, y, z = [0.0, 1.0, 2.5][:n], [0.0, 0.5, 0.25][:n], [1.0, 3.0, 0.0][:n]
        _assert_matches_row_loop(PointSet.from_arrays(x, y, z, CRS), 3.0, 6)

    @pytest.mark.parametrize("budget", [1, 5, 64], indirect=True)
    def test_rows_longer_than_the_budget(self, budget):
        rng = np.random.default_rng(43)
        xy = rng.uniform(0, 10, size=(80, 2))
        ps = PointSet.from_arrays(xy[:, 0], np.sort(xy[:, 1]), rng.normal(size=80), CRS)
        stops = variogram._row_stops(ps.y, 20.0)
        assert stops[0] - 1 > budget
        _assert_matches_row_loop(ps, 20.0, 7)

    def test_rows_with_an_empty_northing_window_inside_a_block(self, budget):
        # clusters 10 m apart in northing with max_lag 2: the last row of
        # each cluster pairs with nothing
        rng = np.random.default_rng(47)
        y = np.concatenate([c + np.sort(rng.uniform(0, 1, size=6)) for c in (0.0, 10.0, 20.0)])
        x = rng.uniform(0, 1.5, size=y.size)
        ps = PointSet.from_arrays(x, y, rng.normal(size=y.size), CRS)
        stops = variogram._row_stops(ps.y, 2.0)
        empty = np.flatnonzero(stops == np.arange(1, y.size + 1))
        assert empty[0] < y.size - 1
        _assert_matches_row_loop(ps, 2.0, 4)

    def test_tail_pair_just_past_max_lag_is_spilled_unmasked(self, budget, caplog):
        # samples 0-2 in a row and 3 dy = max_lag (1 + 1e-8) above sample
        # 0: past its row's stop, but inside the block of rows 0 and 1 that
        # sample 1 (whose window holds 3) extends. A cluster 80 m up holds
        # the longest row, so rows 0 and 1 share a block at every budget,
        # and puts the centred, scaled northings of 0 and 3 in two float32
        # binades whose roundings take the pair's quotient one float32 ulp
        # below n_bins: only the np.hypot redo keeps it out of the last bin.
        max_lag, n_bins = 10.0, 5
        width = max_lag / n_bins
        top = 80.0 - 2.8 * 2.0**-19
        y = np.concatenate([[0.0, 0.5, 1.0, max_lag * (1 + 1e-8)], top - 0.125 * np.arange(8)[::-1]])
        x = np.concatenate([[0.0, 1.0, 2.0, 0.0], 0.25 * np.arange(8)])
        ps = PointSet.from_arrays(x, y, np.random.default_rng(67).normal(size=x.size), CRS)
        stops = variogram._row_stops(ps.y, max_lag)
        cap = max(budget, int((stops - np.arange(1, x.size + 1)).max()))
        height = variogram._ROW_SUMS // (n_bins + 1)
        blocks = list(variogram._row_blocks(stops.tolist(), cap, height))
        assert stops[0] == 3 and any(i == 0 and k >= 2 and end > 3 for i, k, end in blocks)
        assert math.hypot(x[3] - x[0], y[3] - y[0]) >= max_lag
        scaled = ((y - (0.5 * y.min() + 0.5 * y.max())) / width).astype(np.float32)
        assert n_bins - 1e-5 < abs(scaled[3] - scaled[0]) < n_bins

        caplog.set_level(logging.DEBUG, logger="dsmkit.variogram")
        ev = _assert_matches_row_loop(ps, max_lag, n_bins)
        near = sum(
            math.hypot(x[j] - x[i], y[j] - y[i]) < max_lag
            for i in range(x.size) for j in range(i + 1, x.size)
        )
        assert ev.pair_counts.sum() == near
        # no pair inside a row's window is near a bin edge: the tail redo
        # is not counted
        assert _redo_log(caplog)[3] == 0

    def test_non_monotone_stops(self, budget):
        # northings in a zigzag: a row's window can end before the previous one's
        rng = np.random.default_rng(53)
        y = np.concatenate([np.arange(0.0, 30.0, 3.0), np.arange(1.5, 30.0, 3.0)[::-1]])
        x = rng.uniform(0, 4, size=y.size)
        ps = PointSet.from_arrays(x, y, rng.normal(size=y.size), CRS)
        stops = variogram._row_stops(ps.y, 4.0)
        assert (np.diff(stops) < 0).any()
        _assert_matches_row_loop(ps, 4.0, 5)


class TestThreads:
    """The runs after the first are binned on worker threads."""

    @staticmethod
    def _lattice(side):
        gx, gy = np.meshgrid(np.arange(float(side)), np.arange(float(side)))
        z = np.random.default_rng(71).normal(size=gx.size)
        return PointSet.from_arrays(gx.ravel(), gy.ravel(), z, CRS)

    def test_runs_are_contiguous_balanced_and_never_more_than_the_blocks(self):
        blocks = [(i, i + 1, i + 2 + i % 3) for i in range(10)]
        for parts in (1, 2, 3, 10, 1000):
            runs = variogram._runs(blocks, parts)
            assert [b for run in runs for b in run] == blocks
            assert all(runs) and len(runs) == min(parts, len(blocks))
        cells = [sum(e - i - 1 for i, _, e in run) for run in variogram._runs(blocks, 2)]
        assert cells == [9, 10]
        assert variogram._runs(blocks[:1], 8) == [blocks[:1]]
        assert variogram._runs([], 8) == [[]]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_bin_their_runs(self, monkeypatch, workers):
        _split(monkeypatch, 64, workers)
        threads = []
        work = variogram._work
        monkeypatch.setattr(
            variogram, "_work",
            lambda *args: threads.append(threading.current_thread()) or work(*args),
        )
        _assert_matches_row_loop(self._lattice(12), 6.0, 9)
        assert len(threads) == workers - 1
        assert threading.main_thread() not in threads

    def test_more_workers_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # eight threads switching every microsecond: a lost or misplaced row
        # sum would change the gammas' bits
        _split(monkeypatch, 64, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                _assert_matches_row_loop(self._lattice(16), 7.0, 11)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    def test_a_one_block_input_starts_no_thread(self, monkeypatch):
        # the 100-sample lattice is one block of 4,950 cells
        _split(monkeypatch, 1 << 16, 2)
        monkeypatch.setattr(variogram.threading, "Thread", self._no_thread)
        _assert_matches_row_loop(self._lattice(10), 20.0, 15)

    def test_fewer_pairs_than_a_thread_needs_start_no_thread(self, monkeypatch):
        # 28 blocks of the 144-sample lattice, but 8,136 pairs in all
        monkeypatch.setattr(variogram, "_BLOCK_PAIRS", 64)
        monkeypatch.setattr(variogram, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(variogram.threading, "Thread", self._no_thread)
        _assert_matches_row_loop(self._lattice(12), 6.0, 9)

    @pytest.mark.parametrize("row_sums, height", [(64, 6), (10, 1)])
    def test_row_sums_bound_the_blocks_and_the_stored_rows(self, monkeypatch, row_sums, height):
        # 10 sums a row: at most row_sums // 10 rows a block, and the
        # second run's rows are more than the workers may store
        _split(monkeypatch, 1 << 16, 2)
        monkeypatch.setattr(variogram, "_ROW_SUMS", row_sums)
        monkeypatch.setattr(variogram.threading, "Thread", self._no_thread)
        heights = []
        bin_run = variogram._bin_run

        def spy(scan, run, *args):
            heights.extend(k - i for i, k, _ in run)
            return bin_run(scan, run, *args)

        monkeypatch.setattr(variogram, "_bin_run", spy)
        _assert_matches_row_loop(self._lattice(12), 6.0, 9)
        assert max(heights) == height

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        _split(monkeypatch, 64, 3)
        raised = []
        bin_run = variogram._bin_run

        def failing(*args):
            if threading.current_thread() is threading.main_thread():
                return bin_run(*args)
            raised.append(ValueError("worker failed"))
            raise raised[-1]

        monkeypatch.setattr(variogram, "_bin_run", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match="worker failed") as caught:
            empirical_variogram(self._lattice(12), 6.0, 9)
        assert any(caught.value is e for e in raised)  # the object itself
        assert threading.active_count() == before

    def test_a_caller_exception_stops_the_workers(self, monkeypatch):
        _split(monkeypatch, 64, 2)
        bin_run = variogram._bin_run
        binned = []

        def caller_fails(scan, run, buffers, out, stop):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            assert stop.wait(60)  # the worker starts after the caller has failed
            binned.append(bin_run(scan, run, buffers, out, stop)[0].sum())
            return None

        monkeypatch.setattr(variogram, "_bin_run", caller_fails)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            empirical_variogram(self._lattice(12), 6.0, 9)
        assert threading.active_count() == before
        assert binned == [0]


class TestRedoLog:
    def test_demo_redoes_under_a_thousandth_of_the_pairs(self, caplog):
        from dsmkit.pipeline import PipelineConfig, prepare_samples

        cfg = PipelineConfig.from_mapping({})
        ps = prepare_samples(cfg).utm
        caplog.set_level(logging.DEBUG, logger="dsmkit.variogram")
        ev = empirical_variogram(ps, cfg.variogram_max_lag, cfg.variogram_bins)
        samples, scanned, binned, redone = _redo_log(caplog)
        stops = variogram._row_stops(ps.y, cfg.variogram_max_lag)
        assert samples == len(ps)
        assert scanned == int((stops - np.arange(1, len(ps) + 1)).sum())
        assert binned == ev.pair_counts.sum()
        assert redone < 1e-3 * scanned


class TestModelGamma:
    def test_zero_at_origin_every_kind(self):
        for kind in ("spherical", "gaussian", "exponential"):
            m = VariogramModel(kind, 1.0, 4.0, 10.0)
            assert model_gamma(m, 0.0) == 0.0

    def test_spherical_beyond_range(self):
        m = VariogramModel("spherical", 1.0, 4.0, 10.0)
        assert model_gamma(m, 20.0) == pytest.approx(5.0, abs=1e-12)

    def test_spherical_at_range(self):
        m = VariogramModel("spherical", 1.0, 4.0, 10.0)
        assert model_gamma(m, 10.0) == pytest.approx(5.0, abs=1e-12)

    def test_spherical_matches_independent_formula(self):
        m = VariogramModel("spherical", 0.5, 2.0, 150.0)
        h = np.linspace(0.0, 400.0, 57)
        assert np.allclose(model_gamma(m, h), spherical_gamma(0.5, 2.0, 150.0, h), rtol=1e-12)

    def test_continuity_at_range(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            c0, c, a = rng.uniform(0, 5), rng.uniform(0, 10), rng.uniform(1, 500)
            m = VariogramModel("spherical", c0, c, a)
            eps = a * 1e-9
            left = model_gamma(m, a - eps)
            right = model_gamma(m, a + eps)
            assert abs(left - (c0 + c)) <= 1e-6 * max(1.0, c0 + c)
            assert abs(right - (c0 + c)) <= 1e-12 * max(1.0, c0 + c)
            assert abs(model_gamma(m, a) - (c0 + c)) <= 1e-12 * max(1.0, c0 + c)

    def test_practical_range_convention(self):
        for kind in ("gaussian", "exponential"):
            m = VariogramModel(kind, 0.0, 1.0, 50.0)
            assert model_gamma(m, 50.0) == pytest.approx(1.0 - np.exp(-3.0), abs=1e-12)

    def test_monotone_nondecreasing(self):
        h = np.linspace(0.0, 600.0, 400)
        for kind in ("spherical", "gaussian", "exponential"):
            m = VariogramModel(kind, 0.7, 3.0, 120.0)
            v = model_gamma(m, h)
            assert np.all(np.diff(v) >= -1e-12)

    def test_negative_lag_rejected(self):
        m = VariogramModel("spherical", 0.0, 1.0, 10.0)
        with pytest.raises(DataError):
            model_gamma(m, -1.0)

    def test_nan_lag_rejected(self):
        m = VariogramModel("spherical", 0.0, 1.0, 10.0)
        for h in (math.nan, np.array([[1.0, math.nan], [2.0, 3.0]])):
            with pytest.raises(DataError, match="non-negative"):
                model_gamma(m, h)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_in_place_evaluation_matches_the_allocating_oracle(self, kind):
        # zero, inside the range, at it and beyond it; numpy rounds ** on a
        # numpy scalar (libm's pow) differently from np.power on an array,
        # so a scalar must get the bits of the same lag inside an array:
        # 29.280247826262432 is a spherical lag where the two roundings differ
        m = VariogramModel(kind, 0.3, 2.5, 40.0)
        rng = np.random.default_rng(61)
        lags = np.concatenate(
            [[0.0, 17.3, 40.0, 95.0, 29.280247826262432], rng.uniform(0.0, 40.0, 400)]
        )
        for h in lags:
            want = model_gamma_reference(m, np.array([h]))[0]
            for given in (float(h), np.asarray(h)):
                got = model_gamma(m, given)
                assert type(got) is float
                assert got == want
        grid = rng.permutation(np.resize(lags, (46, 351)).ravel()).reshape(46, 351)
        for given in (grid, grid.T, grid[::3, 1::2]):
            before = given.copy()
            got = model_gamma(m, given)
            assert np.array_equal(got, model_gamma_reference(m, given))
            assert np.array_equal(given, before)
        zero_d = np.asarray(17.3)
        model_gamma(m, zero_d)
        assert zero_d == 17.3

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            VariogramModel("spherical", -0.1, 1.0, 10.0)
        with pytest.raises(ConfigError):
            VariogramModel("spherical", 0.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            VariogramModel("cubic", 0.0, 1.0, 10.0)


class TestFitModel:
    def test_noiseless_self_fit_recovers_parameters(self):
        truth = VariogramModel("spherical", 0.5, 2.0, 150.0)
        lags = np.linspace(20.0, 290.0, 10)
        gammas = model_gamma(truth, lags)
        ev = ExperimentalVariogram(lags, gammas, np.full(10, 40), max_lag=300.0)
        fit = fit_model(ev, "spherical")
        assert fit.nugget == pytest.approx(0.5, rel=1e-6, abs=1e-9)
        assert fit.partial_sill == pytest.approx(2.0, rel=1e-6)
        assert fit.range_ == pytest.approx(150.0, rel=1e-6)

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_self_fit_other_kinds(self, kind):
        truth = VariogramModel(kind, 0.3, 1.5, 100.0)
        lags = np.linspace(10.0, 280.0, 12)
        ev = ExperimentalVariogram(lags, model_gamma(truth, lags), np.full(12, 25), 300.0)
        fit = fit_model(ev, kind)
        assert fit.nugget == pytest.approx(0.3, rel=1e-5, abs=1e-8)
        assert fit.partial_sill == pytest.approx(1.5, rel=1e-5)
        assert fit.range_ == pytest.approx(100.0, rel=1e-5)

    def test_all_zero_bins(self):
        lags = np.array([10.0, 20.0, 30.0])
        ev = ExperimentalVariogram(lags, np.zeros(3), np.array([5, 5, 5]), max_lag=40.0)
        fit = fit_model(ev, "spherical")
        assert fit.nugget == 0.0
        assert fit.partial_sill == 0.0
        assert fit.range_ == 40.0

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        lags = np.linspace(5.0, 95.0, 10)
        gam = np.abs(rng.normal(1.0, 0.3, size=10))
        ev = ExperimentalVariogram(lags, gam, rng.integers(5, 50, 10), max_lag=100.0)
        a = fit_model(ev, "spherical")
        b = fit_model(ev, "spherical")
        assert (a.nugget, a.partial_sill, a.range_) == (b.nugget, b.partial_sill, b.range_)

    def test_too_few_bins(self):
        ev = ExperimentalVariogram([1.0, 2.0], [0.1, 0.2], [3, 3], max_lag=3.0)
        with pytest.raises(DataError):
            fit_model(ev, "spherical")

    def test_pair_count_weighting_pulls_fit(self):
        # a heavily weighted bin must dominate: corrupt one low-weight bin
        truth = VariogramModel("spherical", 0.0, 1.0, 50.0)
        lags = np.linspace(5.0, 95.0, 10)
        gam = model_gamma(truth, lags)
        gam_corrupt = gam.copy()
        gam_corrupt[3] += 0.5
        counts = np.full(10, 1000)
        counts[3] = 1
        ev = ExperimentalVariogram(lags, gam_corrupt, counts, max_lag=100.0)
        fit = fit_model(ev, "spherical")
        assert fit.range_ == pytest.approx(50.0, rel=0.02)
        assert fit.partial_sill == pytest.approx(1.0, rel=0.02)


def _assert_fit_matches_reference(ev):
    h, g, w = ev.lags, ev.gammas, ev.pair_counts.astype(float)
    grid = np.linspace(0.0, 2.0 * ev.max_lag, 257)[1:]
    for kind in variogram.MODEL_KINDS:
        # the one-pass grid gives each range the per-range result, bit for bit
        want = np.array([_wls_for_range_reference(kind, h, g, w, a) for a in grid])
        got = np.column_stack(variogram._wls(kind, h, g, w, grid))
        assert np.array_equal(got, want), kind
        fit, ref = fit_model(ev, kind), fit_model_reference(ev, kind)
        assert fit == ref
        assert [math.copysign(1.0, v) for v in (fit.nugget, fit.partial_sill)] == [
            math.copysign(1.0, v) for v in (ref.nugget, ref.partial_sill)
        ]


class TestFitAgainstReference:
    """fit_model's one-pass grid against the range-by-range least squares."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"rows": 120, "cols": 240}, {"rows": 16, "cols": 32}],
        ids=["demo", "dense-scan", "global-uk"],
    )
    def test_workload_variograms(self, overrides):
        from dsmkit.pipeline import PipelineConfig, prepare_samples

        cfg = PipelineConfig.from_mapping(overrides)
        samples = prepare_samples(cfg).utm
        ev = empirical_variogram(samples, cfg.variogram_max_lag, cfg.variogram_bins)
        _assert_fit_matches_reference(ev)

    def test_refinement_profiles_five_steps_per_call(self, monkeypatch):
        from dsmkit.pipeline import PipelineConfig, prepare_samples

        cfg = PipelineConfig.from_mapping({})
        ev = empirical_variogram(prepare_samples(cfg).utm, cfg.variogram_max_lag, cfg.variogram_bins)
        sizes = []
        wls = variogram._wls
        monkeypatch.setattr(variogram, "_wls", lambda *a: sizes.append(len(a[-1])) or wls(*a))
        for kind in variogram.MODEL_KINDS:
            sizes.clear()
            fit = fit_model(ev, kind)
            assert fit == fit_model_reference(ev, kind)
            # the grid, then per call at most x1, x2 and the new points of
            # the next four steps' branches (2 + 4 + 8 + 16), five steps per
            # call, and the fitted range
            assert sizes[0] == 256 and sizes[-1] == 1
            assert max(sizes[1:-1]) <= 32 and len(sizes) <= 12

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.lists(st.floats(1e-3, 50.0), min_size=3, max_size=40),
        data=st.data(),
        reach=st.floats(1.0, 4.0),
    )
    def test_generated_variograms(self, steps, data, reach):
        lags = np.cumsum(steps)
        g = data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
                min_size=len(lags), max_size=len(lags),
            )
        )
        counts = data.draw(
            st.lists(st.integers(1, 10**6), min_size=len(lags), max_size=len(lags))
        )
        ev = ExperimentalVariogram(lags, g, counts, float(lags[-1]) * reach)
        _assert_fit_matches_reference(ev)


class TestExperimentalVariogramValidation:
    def test_decreasing_lags_rejected(self):
        with pytest.raises(DataError):
            ExperimentalVariogram([2.0, 1.0], [0.1, 0.2], [1, 1], 3.0)

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            ExperimentalVariogram([1.0, 2.0], [0.1, 0.2], [1, 0], 3.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(DataError):
            ExperimentalVariogram([1.0], [-0.1], [1], 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lag_rejected(self, bad):
        with pytest.raises(DataError, match="lag centers must be finite"):
            ExperimentalVariogram([1.0, bad, 3.0], [1.0, 1.5, 2.0], [3, 3, 3], 4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, bad):
        # a NaN gamma once gave a fit of partial sill 0 and range 0.078
        with pytest.raises(DataError, match="semivariances must be finite"):
            ExperimentalVariogram([1.0, 2.0, 3.0], [1.0, bad, 2.0], [3, 3, 3], 4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -4.0])
    def test_non_finite_or_non_positive_max_lag_rejected(self, bad):
        with pytest.raises(DataError, match="max_lag must be positive and finite"):
            ExperimentalVariogram([1.0, 2.0, 3.0], [1.0, 1.5, 2.0], [3, 3, 3], bad)
