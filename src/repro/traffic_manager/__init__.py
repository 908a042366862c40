"""The Traffic Manager: TM-Edge, TM-PoP, tunnels, flows, failover.

The one data plane, :class:`VectorFlowTable`, is the flow store of the
:class:`TMEdge` that owns it: numpy struct-of-arrays columns in a few
sorted runs, batched admit/forward/remap for millions of flows per step.
"""

from repro.traffic_manager.dataplane import (
    FlowBatch,
    ForwardResult,
    TM_SNAPSHOT_VERSION,
    VectorFlowTable,
    flow_key,
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
    "DestinationLoad",
    "DowntimeEvent",
    "ENCAP_OVERHEAD_BYTES",
    "FlowBatch",
    "ForwardResult",
    "LoadAwareSelector",
    "MultipathConnection",
    "SelectorBank",
    "Subflow",
    "TM_SNAPSHOT_VERSION",
    "VectorFlowTable",
    "effective_latency_ms",
    "failover_comparison",
    "flow_key",
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
