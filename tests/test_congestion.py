
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series
from mobitrace import congestion
from mobitrace.congestion import (
    CongestionAssessment,
    Pool,
    WindowStats,
    classify,
    filter_spikes,
    pool_of,
)
from mobitrace.model import MAX_THROUGHPUT_KBPS, AnalysisConfig
from mobitrace.synth import plant_pool

CFG = AnalysisConfig()


def sample_lists(min_size, max_value=1e6):
    return st.lists(
        st.floats(min_value=0.0, max_value=max_value, allow_nan=False, allow_infinity=False),
        min_size=min_size,
        max_size=60,
    )


series_strategy = sample_lists(2).map(make_series)


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


# Reference classify: the pipeline that built the windows' statistics in
# three passes, kept verbatim. classify must return exactly what it returns,
# or raise the same ValueError.


def window_stats(series, cfg):
    """Mean and RAD per non-overlapping window; trailing remainder dropped."""
    w = cfg.window_size
    if len(series.values) < w:
        raise ValueError("insufficient samples")
    stats = []
    for k in range(len(series.values) // w):
        chunk = series.values[k * w : (k + 1) * w]
        mean = math.fsum(chunk) / w
        if mean == 0:
            rad = 0.0
        else:
            rad = (math.fsum(abs(x - mean) for x in chunk) / w) / mean
        stats.append(WindowStats(window_index=k, mean_kbps=mean, rad=rad))
    return stats


def select_upper_bound(windows, cfg):
    """Pick the stable high-mean window used as the congestion-free rate.

    Among eligible (non-slow-start) windows with rad <= rad_stability_max,
    take the highest mean (ties: lowest rad, then lowest index). If none
    is stable enough, fall back to maximizing mean/(1+rad).
    """
    eligible = [w for w in windows if not w.excluded_slow_start]
    if not eligible:
        raise ValueError("no eligible window")
    stable = [w for w in eligible if w.rad <= cfg.rad_stability_max]
    if stable:
        best = min(stable, key=lambda w: (-w.mean_kbps, w.rad, w.window_index))
    else:
        best = min(eligible, key=lambda w: (-w.mean_kbps / (1.0 + w.rad), w.window_index))
    return best.mean_kbps, best.window_index


def window_mape(upper_bound_kbps, samples):
    """Mean absolute percentage deviation from the upper bound, in percent.

    The upper bound is the denominator (the expected value); a zero bound
    only occurs for all-zero series and yields 0.
    """
    if upper_bound_kbps == 0:
        return 0.0
    n = len(samples)
    return (100.0 / n) * math.fsum(abs(upper_bound_kbps - x) / upper_bound_kbps for x in samples)


def _mark_slow_start(windows, cfg):
    """Exclude the leading TCP slow-start ramp.

    The first slow_start_min_excluded windows are always excluded;
    exclusion then continues through consecutive leading windows whose
    mean is below activation_fraction of the maximum window mean.
    """
    max_mean = max(w.mean_kbps for w in windows)
    threshold = cfg.slow_start_activation_fraction * max_mean
    marked = []
    excluding = True
    for w in windows:
        if excluding:
            if w.window_index < cfg.slow_start_min_excluded or w.mean_kbps < threshold:
                marked.append(
                    WindowStats(w.window_index, w.mean_kbps, w.rad, excluded_slow_start=True)
                )
                continue
            excluding = False
        marked.append(w)
    return marked


def reference_classify(series, cfg):
    """Run the full congestion pipeline on one sample series."""
    if len(series.values) < 2 * cfg.window_size:
        raise ValueError("insufficient samples")
    filtered, spikes_replaced = filter_spikes(series, cfg)
    windows = _mark_slow_start(window_stats(filtered, cfg), cfg)
    upper_bound, ub_index = select_upper_bound(windows, cfg)

    w = cfg.window_size
    finished = []
    mapes = []
    for stats in windows:
        if stats.excluded_slow_start:
            finished.append(stats)
            continue
        chunk = filtered.values[stats.window_index * w : (stats.window_index + 1) * w]
        mape = window_mape(upper_bound, chunk)
        mapes.append(mape)
        finished.append(WindowStats(stats.window_index, stats.mean_kbps, stats.rad, mape_pct=mape))
    overall = math.fsum(mapes) / len(mapes)
    return CongestionAssessment(
        windows=tuple(finished),
        upper_bound_kbps=upper_bound,
        upper_bound_window=ub_index,
        overall_mape_pct=overall,
        pool=pool_of(overall, cfg),
        spikes_replaced=spikes_replaced,
    )


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

    def test_spike_free_series_makes_no_ratio_calls(self, monkeypatch):
        # the first pass computes every ratio inline; the helpers run only
        # around a replacement
        calls = []
        for name in ("_spike_ratio", "_neighborhood_mean"):
            real = getattr(congestion, name)
            monkeypatch.setattr(congestion, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        rng = random.Random(5)
        series = make_series([1000.0 * rng.uniform(0.9, 1.1) for _ in range(1600)])
        assert filter_spikes(series, CFG) == (series, 0)
        assert classify(series, CFG).spikes_replaced == 0
        assert calls == []

    def test_factor_near_one_stops_at_cap(self, monkeypatch):
        # near spike_factor 1 a replacement keeps making new spikes, so the
        # filter stops at its cap and returns with spikes left
        calls = 0
        real = congestion._neighborhood_mean

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(congestion, "_neighborhood_mean", counting)
        cfg = AnalysisConfig(spike_factor=1.0001)
        rng = random.Random(6)
        series = make_series([1000.0 * rng.uniform(0.5, 1.5) for _ in range(100)])
        filtered, _ = filter_spikes(series, cfg)
        cap = 1000  # max(1000, 4 * 100) replacements
        # each replacement: one mean for the new value, one per ratio recomputed
        assert calls <= (2 * cfg.smoothing_half_width + 2) * cap
        assert _worst_outlier(filtered.values, cfg) is not None


def classify_windows(windows, **overrides):
    """classify on windows of 2 samples given as (mean, dev): the samples
    mean - dev and mean + dev, a window of that mean and of RAD dev/mean.
    The spike filter and the activation threshold are set out of the way,
    and no window is excluded as slow start unless overrides say so."""
    cfg = AnalysisConfig(**{"window_size": 2, "spike_factor": 1e9, "slow_start_min_excluded": 0,
                            "slow_start_activation_fraction": 0.01, **overrides})
    return classify(make_series([v for m, d in windows for v in (m - d, m + d)]), cfg)


class TestWindowStats:
    def test_two_sample_window(self):
        cfg = AnalysisConfig(window_size=2)
        windows = classify(make_series([4, 6, 4, 6]), cfg).windows
        assert windows[0].mean_kbps == 5.0
        assert windows[0].rad == pytest.approx(0.2)

    def test_constant_window_zero_rad(self):
        cfg = AnalysisConfig(window_size=3)
        windows = classify(make_series([7, 7, 7, 7, 7, 7]), cfg).windows
        assert windows[0].mean_kbps == 7.0
        assert windows[0].rad == 0.0

    def test_trailing_remainder_dropped(self):
        assert len(classify(make_series([10.0] * 25), CFG).windows) == 2

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            classify(make_series([1, 2, 3]), AnalysisConfig(window_size=2))

    @given(sample_lists(20).map(make_series))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, series):
        # no window is always slow start, so every series has an eligible window
        cfg = AnalysisConfig(slow_start_min_excluded=0)
        stats = classify(series, cfg).windows
        arr = np.asarray(filter_spikes(series, cfg)[0].values)
        for s in stats:
            chunk = arr[s.window_index * 10 : (s.window_index + 1) * 10]
            mean = chunk.mean()
            rad = np.abs(chunk - mean).mean() / mean if mean else 0.0
            assert s.mean_kbps == pytest.approx(mean, rel=1e-9, abs=1e-12)
            assert s.rad == pytest.approx(rad, rel=1e-9, abs=1e-12)


def upper_bound(assessment):
    return assessment.upper_bound_kbps, assessment.upper_bound_window


class TestSelectUpperBound:
    def test_stability_cut_then_max_mean(self):
        # RADs 0.30, 0.05, 0.02
        windows = [(500, 150), (800, 40), (750, 15)]
        assert upper_bound(classify_windows(windows)) == (800, 1)
        # a RAD equal to rad_stability_max, 0.10, is stable
        assert upper_bound(classify_windows([(800, 80), (700, 0)])) == (800, 0)

    def test_single_window(self):
        # window 0 is slow start, so window 1 is the only eligible one
        windows = [(600, 0), (600, 0)]
        assert upper_bound(classify_windows(windows, slow_start_min_excluded=1)) == (600, 1)

    def test_fallback_scores_mean_over_rad(self):
        windows = [(400, 200), (500, 250)]  # RAD 0.5 each
        assert upper_bound(classify_windows(windows)) == (500, 1)

    def test_ties_prefer_lower_rad_then_index(self):
        windows = [(800, 40), (800, 16), (800, 16)]  # RADs 0.05, 0.02, 0.02
        assert upper_bound(classify_windows(windows)) == (800, 1)

    def test_slow_start_excluded(self):
        windows = [(10_000, 0), (600, 0)]
        assert upper_bound(classify_windows(windows, slow_start_min_excluded=1)) == (600, 1)

    def test_empty_eligible_raises(self):
        with pytest.raises(ValueError, match="no eligible window"):
            classify_windows([(500, 50), (500, 50)], slow_start_min_excluded=2)


class TestMapeAndPools:
    def test_window_mape_formula(self):
        # UB 10 from window 0; window 1 holds samples 8 and 9: mean of 20% and 10%
        assessment = classify_windows([(10, 0), (8.5, 0.5)])
        assert upper_bound(assessment) == (10, 0)
        assert assessment.windows[1].mape_pct == pytest.approx(15.0)

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

    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=2, max_value=200),
        st.floats(min_value=0.0, max_value=0.8),
        st.floats(min_value=0.0, max_value=0.3),
        st.sampled_from([1.0, 1000.0, 12_000.0]),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=1.5, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, rng, n, spike_rate, zero_rate, base, window_size,
                               half_width, min_excluded, activation, rad_max, factor):
        cfg = AnalysisConfig(window_size=window_size, smoothing_half_width=half_width,
                             slow_start_min_excluded=min_excluded,
                             slow_start_activation_fraction=activation,
                             rad_stability_max=rad_max, spike_factor=factor)
        series = make_series(spiky_values(rng, n, spike_rate, zero_rate, base))
        try:
            expected = reference_classify(series, cfg)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                classify(series, cfg)
            assert str(raised.value) == str(exc)
            return
        assert classify(series, cfg) == expected

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
        # scaled by up to 1e3, samples stay within the accepted range
        sample_lists(20, MAX_THROUGHPUT_KBPS / 1e3).filter(lambda vs: max(vs) > 0).map(make_series),
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
