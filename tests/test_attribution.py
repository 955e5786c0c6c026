import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from mobitrace.attribution import (
    Factor,
    attribute,
    upper_bounds,
)
from mobitrace.congestion import CongestionAssessment, Pool
from mobitrace.model import AnalysisConfig, CapabilityCatalog, RadioTechnology

CFG = AnalysisConfig()

FULL_CATALOG = CapabilityCatalog(
    device_caps={("Acme", "One", RadioTechnology.HSPA): 21000.0},
    tech_caps={RadioTechnology.HSPA: 42000.0},
    plan_caps={("OpA", "p1"): 7200.0},
)


def assessment_with_pool(pool):
    return CongestionAssessment(
        windows=(), upper_bound_kbps=1000.0, upper_bound_window=1,
        overall_mape_pct=30.0, pool=pool, spikes_replaced=0,
    )


class TestUpperBounds:
    def test_all_three_caps(self):
        record = make_record(plan_id="p1")
        assert upper_bounds(record, FULL_CATALOG) == {
            Factor.TECHNOLOGY: 42000.0,
            Factor.DEVICE: 21000.0,
            Factor.PLAN: 7200.0,
        }

    def test_empty_catalog(self):
        assert upper_bounds(make_record(), CapabilityCatalog.empty()) == {}

    def test_partial_catalog(self):
        catalog = CapabilityCatalog(
            device_caps={}, tech_caps={RadioTechnology.HSPA: 21000.0}, plan_caps={}
        )
        record = make_record(manufacturer="Other", model="Z")
        assert upper_bounds(record, catalog) == {Factor.TECHNOLOGY: 21000.0}


class TestAttribute:
    def test_near_min_cap_is_plan_limited(self):
        record = make_record(download_kbps=6800.0, plan_id="p1")
        verdict = attribute(record, FULL_CATALOG, None, False, CFG)
        assert verdict.factor is Factor.PLAN
        assert verdict.artificial
        assert verdict.binding_upper_bound_kbps == 7200.0

    def test_below_cap_with_high_pool_is_congestion(self):
        record = make_record(download_kbps=2000.0, plan_id="p1")
        verdict = attribute(record, FULL_CATALOG, assessment_with_pool(Pool.HIGH), False, CFG)
        assert verdict.factor is Factor.CONGESTION
        assert not verdict.artificial
        assert verdict.congestion_pool is Pool.HIGH

    def test_no_evidence_is_undetermined(self):
        verdict = attribute(make_record(), CapabilityCatalog.empty(), None, False, CFG)
        assert verdict.factor is Factor.UNDETERMINED
        assert not verdict.artificial
        assert verdict.binding_upper_bound_kbps is None

    def test_handover_takes_precedence_over_congestion(self):
        record = make_record(download_kbps=100.0)
        verdict = attribute(record, FULL_CATALOG, assessment_with_pool(Pool.HIGH), True, CFG)
        assert verdict.factor is Factor.COVERAGE

    def test_low_pool_is_not_congestion(self):
        record = make_record(download_kbps=100.0)
        verdict = attribute(record, FULL_CATALOG, assessment_with_pool(Pool.LOW), False, CFG)
        assert verdict.factor is Factor.UNDETERMINED

    def test_alpha_threshold_exact(self):
        threshold = CFG.attribution_alpha * 7200.0
        record = make_record(download_kbps=threshold, plan_id="p1")
        assert attribute(record, FULL_CATALOG, None, False, CFG).artificial
        below = make_record(download_kbps=math.nextafter(threshold, 0.0), plan_id="p1")
        assert not attribute(below, FULL_CATALOG, None, False, CFG).artificial

    def test_equal_cap_tiebreak_priority(self):
        catalog = CapabilityCatalog(
            device_caps={("Acme", "One", RadioTechnology.HSPA): 7200.0},
            tech_caps={RadioTechnology.HSPA: 7200.0},
            plan_caps={("OpA", "p1"): 7200.0},
        )
        record = make_record(download_kbps=7200.0, plan_id="p1")
        assert attribute(record, catalog, None, False, CFG).factor is Factor.PLAN
        no_plan = make_record(download_kbps=7200.0)
        assert attribute(no_plan, catalog, None, False, CFG).factor is Factor.DEVICE

    def test_never_artificial_without_caps(self):
        record = make_record(download_kbps=1e9)
        verdict = attribute(record, CapabilityCatalog.empty(), None, False, CFG)
        assert not verdict.artificial

    @given(st.floats(min_value=0, max_value=50000, allow_nan=False),
           st.floats(min_value=0, max_value=50000, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_throughput(self, lo, hi):
        lo, hi = sorted((lo, hi))
        v_lo = attribute(make_record(download_kbps=lo, plan_id="p1"), FULL_CATALOG, None, False, CFG)
        v_hi = attribute(make_record(download_kbps=hi, plan_id="p1"), FULL_CATALOG, None, False, CFG)
        # raising throughput can only move natural -> artificial
        assert not (v_lo.artificial and not v_hi.artificial)
