"""The Traffic Manager: TM-Edge, TM-PoP, tunnels, flows, failover.

Two data planes implement the same :class:`DataPlane` protocol, each the
one flow store of the :class:`TMEdge` that owns it:

* :class:`ScalarDataPlane` — the reference, one dict record per flow;
* :class:`VectorFlowTable` — numpy struct-of-arrays columns in a few
  sorted runs, batched admit/forward/remap for millions of flows per step.
"""

from repro.traffic_manager.dataplane import (
    DataPlane,
    FlowBatch,
    ForwardResult,
    ScalarDataPlane,
    TM_SNAPSHOT_VERSION,
    VectorFlowTable,
    flow_key,
    plane_from_snapshot,
)
from repro.traffic_manager.failover import (
    AnycastEpoch,
    DowntimeEvent,
    FailoverConfig,
    FailoverResult,
    PathSpec,
    default_fig10_paths,
    run_failover,
)
from repro.traffic_manager.flows import FiveTuple
from repro.traffic_manager.load_balancing import (
    DestinationLoad,
    LoadAwareSelector,
    effective_latency_ms,
)
from repro.traffic_manager.multipath import (
    MultipathConnection,
    Subflow,
    failover_comparison,
)
from repro.traffic_manager.selection import (
    LowestLatencySelector,
    SelectorBank,
)
from repro.traffic_manager.tm_edge import TMEdge, TunnelState
from repro.traffic_manager.tm_pop import PrefixDirectory, TMPoP
from repro.traffic_manager.tunnel import (
    ENCAP_OVERHEAD_BYTES,
    NatBinding,
    NatExhaustedError,
    PORTS_PER_ADDRESS,
    Packet,
    TMPoPNat,
    decapsulate,
    encapsulate,
)

__all__ = [
    "AnycastEpoch",
    "DataPlane",
    "DestinationLoad",
    "DowntimeEvent",
    "ENCAP_OVERHEAD_BYTES",
    "FlowBatch",
    "ForwardResult",
    "LoadAwareSelector",
    "MultipathConnection",
    "ScalarDataPlane",
    "SelectorBank",
    "Subflow",
    "TM_SNAPSHOT_VERSION",
    "VectorFlowTable",
    "effective_latency_ms",
    "failover_comparison",
    "flow_key",
    "plane_from_snapshot",
    "FailoverConfig",
    "FailoverResult",
    "FiveTuple",
    "LowestLatencySelector",
    "NatBinding",
    "NatExhaustedError",
    "PORTS_PER_ADDRESS",
    "Packet",
    "PathSpec",
    "PrefixDirectory",
    "TMEdge",
    "TMPoP",
    "TMPoPNat",
    "TunnelState",
    "decapsulate",
    "default_fig10_paths",
    "encapsulate",
    "run_failover",
]
