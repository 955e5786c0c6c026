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

from .congestion import CongestionAssessment, Pool
from .model import AnalysisConfig, CapabilityCatalog, MeasurementRecord, check_field_types


class Factor(Enum):
    DEVICE = "DEVICE"
    TECHNOLOGY = "TECHNOLOGY"
    PLAN = "PLAN"
    CONGESTION = "CONGESTION"
    COVERAGE = "COVERAGE"
    UNDETERMINED = "UNDETERMINED"


# Tiebreak for equal caps: plan caps are operator-enforced, device caps are
# hardware, technology caps are the loosest standard.
_BINDING_PRIORITY = {Factor.PLAN: 0, Factor.DEVICE: 1, Factor.TECHNOLOGY: 2}


@dataclass(frozen=True, slots=True)
class LimitingFactorVerdict:
    record_id: str
    factor: Factor
    artificial: bool
    binding_upper_bound_kbps: Optional[float]
    congestion_pool: Optional[Pool]

    __post_init__ = check_field_types


@dataclass(frozen=True, slots=True)
class AssessmentSummary:
    """A CongestionAssessment's fields in order, less the per-window stats, which no report reads."""

    upper_bound_kbps: float
    upper_bound_window: int
    overall_mape_pct: float
    pool: Pool
    spikes_replaced: int

    __post_init__ = check_field_types


@dataclass(frozen=True, slots=True)
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
    assessment: Optional[CongestionAssessment],
    handover_nearby: bool,
    cfg: AnalysisConfig,
) -> LimitingFactorVerdict:
    """Decide which factor limited this measurement's download speed.

    With caps present, throughput at or above alpha times the tightest cap
    is attributed to that cap. Otherwise a nearby handover means coverage,
    a medium/high congestion pool means congestion, and absent evidence
    degrades to UNDETERMINED.
    """
    pool = assessment.pool if assessment is not None else None
    bounds = upper_bounds(record, catalog)
    binding_cap = None
    if bounds:
        binding_factor, binding_cap = min(
            bounds.items(), key=lambda kv: (kv[1], _BINDING_PRIORITY[kv[0]])
        )
        if record.download_kbps >= cfg.attribution_alpha * binding_cap:
            return LimitingFactorVerdict(
                record_id=record.record_id,
                factor=binding_factor,
                artificial=True,
                binding_upper_bound_kbps=binding_cap,
                congestion_pool=pool,
            )
    if handover_nearby:
        factor = Factor.COVERAGE
    elif pool in (Pool.MEDIUM, Pool.HIGH):
        factor = Factor.CONGESTION
    else:
        factor = Factor.UNDETERMINED
    return LimitingFactorVerdict(
        record_id=record.record_id,
        factor=factor,
        artificial=False,
        binding_upper_bound_kbps=binding_cap,
        congestion_pool=pool,
    )
