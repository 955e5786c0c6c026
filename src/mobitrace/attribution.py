"""Per-measurement limiting-factor attribution.

Device, technology and plan caps are the artificial factors (knowable in
advance); congestion and coverage are the natural ones. A measurement
running close to its tightest cap is attributed to that cap; everything
else falls to the natural side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from .model import AnalysisConfig, CapabilityCatalog, MeasurementRecord, Pool, check_field_types


class Factor(Enum):
    DEVICE = "DEVICE"
    TECHNOLOGY = "TECHNOLOGY"
    PLAN = "PLAN"
    CONGESTION = "CONGESTION"
    COVERAGE = "COVERAGE"
    UNDETERMINED = "UNDETERMINED"


# The artificial factors, with the tiebreak for equal caps: plan caps are
# operator-enforced, device caps are hardware, technology caps are the
# loosest standard.
_BINDING_PRIORITY = {Factor.PLAN: 0, Factor.DEVICE: 1, Factor.TECHNOLOGY: 2}


@dataclass(slots=True)
class LimitingFactorVerdict:
    factor: Factor
    binding_upper_bound_kbps: Optional[float]

    __post_init__ = check_field_types

    @property
    def artificial(self) -> bool:
        """A cap limited the measurement, not the network."""
        return self.factor in _BINDING_PRIORITY


@dataclass(slots=True)
class AssessmentSummary:
    """A CongestionAssessment's fields in order, less the per-window stats, which no report reads."""

    upper_bound_kbps: float
    upper_bound_window: int
    overall_mape_pct: float
    pool: Pool
    spikes_replaced: int

    __post_init__ = check_field_types


@dataclass(slots=True)
class AnalyzedRow:
    """One line of analyzed.jsonl; assessment is None (null) for a record classify did not assess."""

    record: MeasurementRecord
    verdict: LimitingFactorVerdict
    assessment: Optional[AssessmentSummary]


def upper_bounds(record: MeasurementRecord, catalog: CapabilityCatalog) -> Dict[Factor, float]:
    """Catalog caps applicable to this record; missing entries are absent."""
    bounds = {}
    device_cap = catalog.device_caps.get((record.manufacturer, record.model, record.technology))
    if device_cap is not None:
        bounds[Factor.DEVICE] = device_cap
    tech_cap = catalog.tech_caps.get(record.technology)
    if tech_cap is not None:
        bounds[Factor.TECHNOLOGY] = tech_cap
    if record.plan_id is not None:
        plan_cap = catalog.plan_caps.get((record.subscriber_operator, record.plan_id))
        if plan_cap is not None:
            bounds[Factor.PLAN] = plan_cap
    return bounds


def attribute(
    record: MeasurementRecord,
    catalog: CapabilityCatalog,
    pool: Optional[Pool],
    handover_nearby: bool,
    cfg: AnalysisConfig,
) -> LimitingFactorVerdict:
    """Decide which factor limited this measurement's download speed.

    pool is the record's congestion pool, or None when classify did not
    assess it. With caps present, throughput at or above alpha times the
    tightest cap is attributed to that cap. Otherwise a nearby handover
    means coverage, a medium/high pool means congestion, and absent
    evidence degrades to UNDETERMINED. The binding cap is kept either way.
    """
    bounds = upper_bounds(record, catalog)
    binding_cap = None
    if bounds:
        binding_factor, binding_cap = min(
            bounds.items(), key=lambda kv: (kv[1], _BINDING_PRIORITY[kv[0]])
        )
        if record.download_kbps >= cfg.attribution_alpha * binding_cap:
            return LimitingFactorVerdict(binding_factor, binding_cap)
    if handover_nearby:
        return LimitingFactorVerdict(Factor.COVERAGE, binding_cap)
    if pool in (Pool.MEDIUM, Pool.HIGH):
        return LimitingFactorVerdict(Factor.CONGESTION, binding_cap)
    return LimitingFactorVerdict(Factor.UNDETERMINED, binding_cap)
