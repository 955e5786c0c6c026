
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series
from mobitrace import congestion
from mobitrace.congestion import (
    Pool,
    WindowStats,
    classify,
    filter_spikes,
    pool_of,
    select_upper_bound,
    window_mape,
    window_stats,
)
from mobitrace.model import AnalysisConfig
from mobitrace.synth import plant_pool

CFG = AnalysisConfig()

series_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=60,
).map(make_series)


# Reference spike filter: a full rescan after every replacement, at most
# 1000 replacements. filter_spikes must return exactly what it returns
# wherever it settles within that cap.
_MAX_FILTER_PASSES = 1000


def _neighborhood_mean(values, i: int, half_width: int):
    """Mean of the up-to-2*half_width neighbors of i (truncated at edges),
    excluding i itself."""
    lo = max(0, i - half_width)
    hi = min(len(values), i + half_width + 1)
    neighbors = [values[j] for j in range(lo, hi) if j != i]
    if not neighbors:
        return None
    return math.fsum(neighbors) / len(neighbors)


def _worst_outlier(values, cfg):
    """Index and replacement value of the sample deviating most from its
    neighborhood mean, or None when every sample is within bounds."""
    worst = None
    worst_ratio = cfg.spike_factor
    for i, v in enumerate(values):
        m = _neighborhood_mean(values, i, cfg.smoothing_half_width)
        if m is None or m <= 0:
            continue
        ratio = v / m if v > m else (math.inf if v == 0 else m / v)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst = (i, m)
    return worst


def reference_filter_spikes(series, cfg):
    """(values, replaced, settled): settled is False when the cap stopped
    the loop."""
    values = list(series.values)
    settled = False
    for _ in range(_MAX_FILTER_PASSES):
        hit = _worst_outlier(values, cfg)
        if hit is None:
            settled = True
            break
        values[hit[0]] = hit[1]
    replaced = sum(1 for a, b in zip(series.values, values) if a != b)
    return tuple(values), replaced, settled


def spiky_values(rng, n, spike_rate, zero_rate, base):
    """n samples around base: spikes of 3-50x up or down at spike_rate,
    zeros at zero_rate, and a third of the rest repeated from a few fixed
    levels, so that equal ratios occur."""
    levels = (0.0, base, base, 2.0 * base, base / 4)
    values = []
    for _ in range(n):
        u = rng.random()
        if u < zero_rate:
            values.append(0.0)
        elif u < zero_rate + spike_rate:
            factor = rng.uniform(3.0, 50.0)
            values.append(base * factor if rng.random() < 0.5 else base / factor)
        elif rng.random() < 0.3:
            values.append(rng.choice(levels))
        else:
            values.append(base * rng.uniform(0.8, 1.2))
    return values


class TestFilterSpikes:
    def test_isolated_spike_replaced(self):
        filtered, replaced = filter_spikes(make_series([10, 10, 100, 10, 10]), CFG)
        assert filtered.values == (10.0, 10.0, 10.0, 10.0, 10.0)
        assert replaced == 1

    def test_constant_series_untouched(self):
        filtered, replaced = filter_spikes(make_series([5, 5, 5, 5]), CFG)
        assert filtered.values == (5.0, 5.0, 5.0, 5.0)
        assert replaced == 0

    def test_all_zero_series_untouched(self):
        filtered, replaced = filter_spikes(make_series([0, 0, 0, 0]), CFG)
        assert filtered.values == (0.0, 0.0, 0.0, 0.0)
        assert replaced == 0

    def test_interval_preserved(self):
        filtered, _ = filter_spikes(make_series([10, 10, 100, 10, 10], interval_ms=250), CFG)
        assert filtered.interval_ms == 250

    @given(series_strategy)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, series):
        once, _ = filter_spikes(series, CFG)
        twice, again = filter_spikes(once, CFG)
        assert twice.values == once.values
        assert again == 0

    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=2, max_value=600),
        st.floats(min_value=0.0, max_value=0.8),
        st.floats(min_value=0.0, max_value=0.3),
        st.sampled_from([1.0, 1000.0, 12_000.0]),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=1.5, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_rescan_reference(self, rng, n, spike_rate, zero_rate, base, half_width, factor):
        cfg = AnalysisConfig(smoothing_half_width=half_width, spike_factor=factor)
        series = make_series(spiky_values(rng, n, spike_rate, zero_rate, base))
        values, replaced, settled = reference_filter_spikes(series, cfg)
        filtered, count = filter_spikes(series, cfg)
        if settled or n <= 250:
            assert filtered.values == values
            assert count == replaced
        else:
            # the reference stopped at its fixed cap; the heap filter's cap
            # grows with n, so it goes on until no spike is left
            assert _worst_outlier(filtered.values, cfg) is None

    def test_long_series_left_without_spikes(self):
        # 5% spikes in 20000 samples need 1118 replacements, more than the
        # fixed cap of 1000 that once left spikes in place
        rng = random.Random(3)
        values = [1000.0 * rng.uniform(0.9, 1.1) * (rng.uniform(3.0, 5.0) if rng.random() < 0.05 else 1.0)
                  for _ in range(20_000)]
        filtered, _ = filter_spikes(make_series(values), CFG)
        assert _worst_outlier(filtered.values, CFG) is None

    def test_mean_calls_linear_in_replacements(self, monkeypatch):
        # a rescan after each replacement costs about n calls per replacement
        calls = 0
        real = congestion._neighborhood_mean

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(congestion, "_neighborhood_mean", counting)
        rng = random.Random(4)
        n, h = 1600, CFG.smoothing_half_width
        # isolated clean spikes, so each replaced sample is replaced once
        values = [1000.0 * rng.uniform(0.9, 1.1) for _ in range(n)]
        for i in range(0, n, 20):
            values[i] *= rng.uniform(3.0, 5.0)
        _, replaced = filter_spikes(make_series(values), CFG)
        assert replaced == n // 20
        assert calls <= n + (2 * h + 2) * replaced


class TestWindowStats:
    def test_two_sample_window(self):
        cfg = AnalysisConfig(window_size=2)
        stats = window_stats(make_series([4, 6]), cfg)
        assert stats[0].mean_kbps == 5.0
        assert stats[0].rad == pytest.approx(0.2)

    def test_constant_window_zero_rad(self):
        cfg = AnalysisConfig(window_size=3)
        stats = window_stats(make_series([7, 7, 7]), cfg)
        assert stats[0].mean_kbps == 7.0
        assert stats[0].rad == 0.0

    def test_trailing_remainder_dropped(self):
        stats = window_stats(make_series(range(25)), CFG)
        assert len(stats) == 2

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            window_stats(make_series([1, 2, 3]), CFG)

    @given(series_strategy.filter(lambda s: len(s.values) >= 10))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, series):
        stats = window_stats(series, CFG)
        arr = np.asarray(series.values)
        for s in stats:
            chunk = arr[s.window_index * 10 : (s.window_index + 1) * 10]
            mean = chunk.mean()
            rad = np.abs(chunk - mean).mean() / mean if mean else 0.0
            assert s.mean_kbps == pytest.approx(mean, rel=1e-9, abs=1e-12)
            assert s.rad == pytest.approx(rad, rel=1e-9, abs=1e-12)


def ws(index, mean, rad, slow_start=False):
    return WindowStats(window_index=index, mean_kbps=mean, rad=rad,
                       excluded_slow_start=slow_start)


class TestSelectUpperBound:
    def test_stability_cut_then_max_mean(self):
        windows = [ws(0, 5, 0.30), ws(1, 8, 0.05), ws(2, 7.5, 0.02)]
        assert select_upper_bound(windows, CFG) == (8, 1)

    def test_single_window(self):
        assert select_upper_bound([ws(0, 6, 0.0)], CFG) == (6, 0)

    def test_fallback_scores_mean_over_rad(self):
        windows = [ws(0, 4, 0.5), ws(1, 5, 0.5)]
        assert select_upper_bound(windows, CFG) == (5, 1)

    def test_ties_prefer_lower_rad_then_index(self):
        windows = [ws(0, 8, 0.05), ws(1, 8, 0.02), ws(2, 8, 0.02)]
        assert select_upper_bound(windows, CFG) == (8, 1)

    def test_slow_start_excluded(self):
        windows = [ws(0, 100, 0.0, slow_start=True), ws(1, 6, 0.0)]
        assert select_upper_bound(windows, CFG) == (6, 1)

    def test_empty_eligible_raises(self):
        with pytest.raises(ValueError, match="no eligible window"):
            select_upper_bound([ws(0, 5, 0.1, slow_start=True)], CFG)


class TestMapeAndPools:
    def test_window_mape_formula(self):
        # UB 10, samples [9, 8]: mean of 10% and 20%
        assert window_mape(10.0, [9.0, 8.0]) == pytest.approx(15.0)

    def test_zero_error_is_low(self):
        assert pool_of(0.0, CFG) is Pool.LOW

    def test_high_beyond_threshold(self):
        assert pool_of(30.0, CFG) is Pool.HIGH

    def test_boundaries_closed(self):
        eps = 1e-9
        assert pool_of(10.0, CFG) is Pool.LOW
        assert pool_of(10.0 + eps, CFG) is Pool.MEDIUM
        assert pool_of(25.0, CFG) is Pool.MEDIUM
        assert pool_of(25.0 + eps, CFG) is Pool.HIGH


class TestClassify:
    def test_flat_series_at_upper_bound_is_low(self):
        assessment = classify(make_series([10.0] * 30), CFG)
        assert assessment.overall_mape_pct == 0.0
        assert assessment.pool is Pool.LOW
        assert assessment.upper_bound_kbps == 10.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            classify(make_series([10.0] * 19), CFG)

    def test_first_window_always_slow_start(self):
        assessment = classify(make_series([10.0] * 30), CFG)
        assert assessment.windows[0].excluded_slow_start
        assert assessment.windows[0].mape_pct is None
        assert all(w.mape_pct is not None for w in assessment.windows[1:])

    def test_slow_start_ramp_excluded_from_upper_bound(self):
        # low ramp window, then two stable windows at full rate
        values = [1.0] * 10 + [100.0] * 20
        assessment = classify(make_series(values), CFG)
        assert assessment.upper_bound_kbps == 100.0
        assert assessment.pool is Pool.LOW

    def test_deterministic(self):
        values = list(np.random.default_rng(5).uniform(100, 5000, size=40))
        a = classify(make_series(values), CFG)
        b = classify(make_series(values), CFG)
        assert a == b

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=20,
            max_size=60,
        ).filter(lambda vs: max(vs) > 0).map(make_series),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, series, scale):
        try:
            base = classify(series, CFG)
        except ValueError:
            return
        scaled = classify(make_series([v * scale for v in series.values]), CFG)
        assert scaled.upper_bound_kbps == pytest.approx(base.upper_bound_kbps * scale, rel=1e-9)
        assert scaled.overall_mape_pct == pytest.approx(base.overall_mape_pct, rel=1e-9, abs=1e-9)
        assert scaled.upper_bound_window == base.upper_bound_window

    def test_planted_pools_recovered(self):
        for target in Pool:
            assessment = classify(plant_pool(target, CFG, 12000.0), CFG)
            assert assessment.pool is target
