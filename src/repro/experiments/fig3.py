"""Fig. 3: traffic sent after DNS record expiration, per cloud.

Paper shape: for Cloud A, 80% of bytes are still sent at least five minutes
after the directing record's TTL expired; the other two clouds see ~20% of
bytes at least a minute late.  Late traffic splits roughly 2:1 between flows
that outlived their record and flows started from cached addresses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dns.trace import (
    CLOUD_PROFILES,
    CloudProfile,
    bytes_yet_to_be_sent_curve,
    extant_vs_cached_ratio,
    generate_trace,
)
from repro.experiments.harness import ExperimentResult

#: Fig. 3's x-axis sample points, seconds relative to record expiration.
DEFAULT_OFFSETS_S = (-60.0, -1.0, 0.0, 1.0, 60.0, 300.0, 3600.0)


def run_fig3(
    n_flows: int = 4000,
    seed: int = 0,
    offsets_s: Sequence[float] = DEFAULT_OFFSETS_S,
    profiles: Optional[Sequence[CloudProfile]] = None,
) -> ExperimentResult:
    profiles = list(profiles) if profiles is not None else list(CLOUD_PROFILES)
    result = ExperimentResult(
        experiment_id="fig3",
        title="Bytes yet to be sent vs time since DNS record expiration",
        columns=["cloud", "offset_s", "bytes_yet_to_be_sent_frac"],
    )
    for profile in profiles:
        flows = generate_trace(profile, n_flows=n_flows, seed=seed)
        for offset, fraction in bytes_yet_to_be_sent_curve(flows, offsets_s):
            result.add_row(profile.name, offset, fraction)
        result.add_note(
            f"{profile.name}: extant-flow to cached-start late-byte ratio = "
            f"{extant_vs_cached_ratio(flows):.2f} (paper: roughly 2:1 for Cloud A)"
        )
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def late_bytes_outlive_dns(result: ExperimentResult) -> None:
    rows = {(r[0], r[1]): r[2] for r in result.rows}
    # Paper shape: ~80% of Cloud A bytes sent >= 5 min after expiry; the
    # other clouds ~20% at >= 1 min.
    assert rows[("cloud-a", 300.0)] > 0.6
    assert rows[("cloud-b", 60.0)] < 0.5
    assert rows[("cloud-c", 60.0)] < 0.5
