import pytest

from conftest import make_record
from mobitrace.coverage import (
    HandoverEvent,
    camping_stats,
    detect_handovers,
    handover_impact,
)
from mobitrace.ingest import build_sessions
from mobitrace.model import AnalysisConfig, RadioTechnology, TechnologyGroup

CFG = AnalysisConfig()


def session_from(cells, gap_ms=30_000, techs=None, start=1_000_000):
    records = []
    for i, cell in enumerate(cells):
        tech = techs[i] if techs else RadioTechnology.UMTS
        records.append(make_record(cell_id=cell, timestamp=start + i * gap_ms, technology=tech))
    return build_sessions(records)[0]


def event(from_tech=RadioTechnology.UMTS, to_tech=RadioTechnology.UMTS,
          from_kbps=1000.0, to_kbps=1000.0, from_dbm=None, to_dbm=None, downgrade=False):
    return HandoverEvent(
        user_id="u1", at_ms=1, from_cell="A", to_cell="B",
        from_tech=from_tech, to_tech=to_tech, from_kbps=from_kbps, to_kbps=to_kbps,
        downgrade=downgrade, gap_ms=30_000, from_dbm=from_dbm, to_dbm=to_dbm,
    )


class TestDetectHandovers:
    def test_single_transition(self):
        events = detect_handovers(session_from(["A", "A", "B", "B"]), CFG)
        assert len(events) == 1
        assert (events[0].from_cell, events[0].to_cell) == ("A", "B")

    def test_large_gap_excluded(self):
        events = detect_handovers(session_from(["A", "B"], gap_ms=600_000), CFG)
        assert events == []

    def test_each_adjacent_change_counts(self):
        events = detect_handovers(session_from(["A", "B", "A"]), CFG)
        assert [(e.from_cell, e.to_cell) for e in events] == [("A", "B"), ("B", "A")]

    def test_constant_cell_no_events(self):
        assert detect_handovers(session_from(["A"] * 5), CFG) == []

    def test_missing_cells_skipped_without_breaking_adjacency(self):
        events = detect_handovers(session_from(["A", None, "B"]), CFG)
        assert len(events) == 1
        assert events[0].gap_ms == 60_000

    def test_downgrade_flag(self):
        session = session_from(["A", "B"], techs=[RadioTechnology.UMTS, RadioTechnology.EDGE])
        events = detect_handovers(session, CFG)
        assert events[0].downgrade

    def test_event_count_bounded_by_pairs(self):
        session = session_from(["A", "B", "C", "D", "E"])
        assert len(detect_handovers(session, CFG)) <= len(session.records) - 1


class TestDowngradeEvents:
    def test_lte_to_umts_included(self):
        session = session_from(["A", "B"], techs=[RadioTechnology.LTE, RadioTechnology.UMTS])
        events = detect_handovers(session, CFG)
        assert events and all(e.downgrade for e in events)

    def test_flag_antisymmetric(self):
        pairs = [(RadioTechnology.LTE, RadioTechnology.EDGE),
                 (RadioTechnology.UMTS, RadioTechnology.HSPA),
                 (RadioTechnology.GPRS, RadioTechnology.LTE)]
        for a, b in pairs:
            fwd = detect_handovers(session_from(["A", "B"], techs=[a, b]), CFG)[0].downgrade
            rev = detect_handovers(session_from(["A", "B"], techs=[b, a]), CFG)[0].downgrade
            from mobitrace.model import group_of
            if group_of(a) == group_of(b):
                assert not fwd and not rev
            else:
                assert fwd != rev


class TestHandoverImpact:
    def test_ninety_percent_drop(self):
        impact = handover_impact([event(from_kbps=4000.0, to_kbps=400.0)])
        assert impact.mean_throughput_ratio == pytest.approx(0.1)

    def test_zero_denominator_excluded(self):
        impact = handover_impact([event(from_kbps=0.0, to_kbps=400.0)])
        assert impact.mean_throughput_ratio is None
        assert impact.throughput_excluded == 1
        assert impact.count == 1

    def test_mean_of_ratios(self):
        events = [event(from_kbps=1000.0, to_kbps=500.0), event(from_kbps=1000.0, to_kbps=1000.0)]
        assert handover_impact(events).mean_throughput_ratio == pytest.approx(0.75)

    def test_signal_ratio_linear_scale(self):
        # 3 dB down is half the power
        impact = handover_impact([event(from_dbm=-70.0, to_dbm=-73.0)])
        assert impact.mean_signal_ratio == pytest.approx(10 ** -0.3)
        assert impact.signal_excluded == 0

    def test_missing_signal_excluded(self):
        impact = handover_impact([event(from_dbm=-70.0, to_dbm=None)])
        assert impact.mean_signal_ratio is None
        assert impact.signal_excluded == 1

    def test_ratio_beyond_the_float_range_excluded(self):
        impact = handover_impact([event(from_kbps=5e-324, to_kbps=1000.0), event(to_kbps=500.0)])
        assert (impact.mean_throughput_ratio, impact.throughput_excluded) == (0.5, 1)

    def test_sum_beyond_the_float_range_still_has_a_mean(self):
        impact = handover_impact([event(from_kbps=1e-301, to_kbps=1e7)] * 4)
        assert impact.mean_throughput_ratio == pytest.approx(1e308)
        assert impact.throughput_excluded == 0

    def test_downgrades_counted(self):
        impact = handover_impact([event(downgrade=True), event(), event(downgrade=True)])
        assert (impact.count, impact.downgrades) == (3, 2)

    def test_empty_input(self):
        impact = handover_impact([])
        assert impact.count == 0
        assert impact.downgrades == 0
        assert impact.mean_throughput_ratio is None


class TestCampingStats:
    def test_half_time_below_4g(self):
        techs = [RadioTechnology.LTE] * 5 + [RadioTechnology.UMTS] * 3 + [RadioTechnology.EDGE] * 2
        session = session_from(["A"] * 10, techs=techs)
        stats = camping_stats(session, TechnologyGroup.G4)
        assert stats.total == 10
        assert stats.on_lower == 5
        assert stats.fraction_lower == 0.5

    def test_all_on_subscribed(self):
        session = session_from(["A"] * 4, techs=[RadioTechnology.LTE] * 4)
        stats = camping_stats(session, TechnologyGroup.G4)
        assert stats.fraction_lower == 0.0
        assert stats.on_subscribed == 4

    def test_3g_subscription(self):
        session = session_from(["A", "B"], techs=[RadioTechnology.UMTS, RadioTechnology.EDGE])
        stats = camping_stats(session, TechnologyGroup.G3)
        assert stats.fraction_lower == 0.5

    def test_wlan_and_unknown_excluded(self):
        techs = [RadioTechnology.WLAN, RadioTechnology.UNKNOWN, RadioTechnology.EDGE]
        session = session_from(["A"] * 3, techs=techs)
        stats = camping_stats(session, TechnologyGroup.G4)
        assert stats.total == 1
        assert stats.on_lower == 1

    def test_above_subscription_counts_on_subscribed(self):
        session = session_from(["A"], techs=[RadioTechnology.LTE])
        stats = camping_stats(session, TechnologyGroup.G3)
        assert stats.on_subscribed == 1

    def test_invalid_subscription_group(self):
        session = session_from(["A"])
        with pytest.raises(ValueError):
            camping_stats(session, TechnologyGroup.G2)

    def test_reorder_invariant(self):
        techs = [RadioTechnology.LTE, RadioTechnology.EDGE, RadioTechnology.UMTS]
        a = camping_stats(session_from(["A"] * 3, techs=techs), TechnologyGroup.G4)
        b = camping_stats(session_from(["A"] * 3, techs=list(reversed(techs))), TechnologyGroup.G4)
        assert a.fraction_lower == b.fraction_lower
