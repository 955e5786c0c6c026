"""Coverage analysis over sessions: handovers, downgrades, camping.

A handover is an adjacent-record change of serving cell within the
configured maximum gap; downgrades compare generation groups. Camping
measures how often a subscription runs on a lower generation than paid
for, counting records (continuous fixed-interval traces make counts
proportional to time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, List, NamedTuple, Optional

from .ingest import Session
from .model import (GROUP_RANK, AnalysisConfig, Dbm, Kbps, RadioTechnology, Range, TechnologyGroup,
                    check_field_types, group_of, is_downgrade, mean)


@dataclass
class HandoverEvent:
    user_id: str
    at_ms: int  # timestamp of the later record
    from_cell: str
    to_cell: str
    from_tech: RadioTechnology
    to_tech: RadioTechnology
    from_kbps: Kbps
    to_kbps: Kbps
    gap_ms: Annotated[int, Range(0)]
    from_dbm: Optional[Dbm] = None
    to_dbm: Optional[Dbm] = None

    __post_init__ = check_field_types

    @property
    def downgrade(self) -> bool:
        """A lower cellular generation after the handover than before it."""
        return is_downgrade(self.from_tech, self.to_tech)


class HandoverImpact(NamedTuple):
    count: int
    downgrades: int
    mean_throughput_ratio: Optional[float]  # to/from, finite ratios only
    throughput_excluded: int
    mean_signal_ratio: Optional[float]  # linear milliwatt scale
    signal_excluded: int


class CampingStats(NamedTuple):
    subscription_group: TechnologyGroup
    total: int
    on_subscribed: int
    on_lower: int
    fraction_lower: float


def detect_handovers(session: Session, cfg: AnalysisConfig) -> List[HandoverEvent]:
    """One event per adjacent cell change within handover_max_gap_ms.

    Records without a cell id are skipped without breaking the adjacency
    of the remaining records.
    """
    with_cell = [r for r in session.records if r.cell_id is not None]
    events = []
    for prev, cur in zip(with_cell, with_cell[1:]):
        if prev.cell_id == cur.cell_id:
            continue
        gap = cur.timestamp - prev.timestamp
        if gap > cfg.handover_max_gap_ms:
            continue
        events.append(
            HandoverEvent(
                user_id=session.user_id,
                at_ms=cur.timestamp,
                from_cell=prev.cell_id,
                to_cell=cur.cell_id,
                from_tech=prev.technology,
                to_tech=cur.technology,
                from_kbps=prev.download_kbps,
                to_kbps=cur.download_kbps,
                gap_ms=gap,
                from_dbm=prev.signal_dbm,
                to_dbm=cur.signal_dbm,
            )
        )
    return events


def handover_impact(events: List[HandoverEvent]) -> HandoverImpact:
    """Event and downgrade counts, and mean to/from throughput and signal-power ratios across events.

    Signal ratios are taken on the linear milliwatt scale because ratios
    of dBm values are meaningless. A throughput ratio counts only when it
    is finite: a zero or tiny from_kbps excludes the event.
    """
    tp_ratios = []
    tp_excluded = 0
    sig_ratios = []
    sig_excluded = 0
    for e in events:
        ratio = e.to_kbps / e.from_kbps if e.from_kbps > 0 else math.inf
        if ratio < math.inf:
            tp_ratios.append(ratio)
        else:
            tp_excluded += 1
        if e.from_dbm is not None and e.to_dbm is not None:
            sig_ratios.append(10.0 ** ((e.to_dbm - e.from_dbm) / 10.0))
        else:
            sig_excluded += 1
    return HandoverImpact(
        count=len(events),
        downgrades=sum(1 for e in events if e.downgrade),
        mean_throughput_ratio=mean(tp_ratios),
        throughput_excluded=tp_excluded,
        mean_signal_ratio=mean(sig_ratios),
        signal_excluded=sig_excluded,
    )


def camping_stats(technologies, subscription_group: TechnologyGroup) -> CampingStats:
    """Count how often a session, given by its records' technologies, camps below its subscribed G3 or G4.

    WLAN and UNKNOWN records are excluded from the total; records above
    the subscription group count as on_subscribed.
    """
    sub_rank = GROUP_RANK[subscription_group]
    ranks = [rank for rank in map(GROUP_RANK.get, map(group_of, technologies)) if rank is not None]
    total, on_lower = len(ranks), sum(rank < sub_rank for rank in ranks)
    return CampingStats(subscription_group, total, total - on_lower, on_lower, on_lower / total if total else 0.0)
