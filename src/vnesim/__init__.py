"""Online virtual network embedding simulator.

Virtual network requests arrive as a Poisson process and ask for an
injective node placement plus capacity-respecting substrate paths. The
batched controller queues successful tentative mappings until n of them wait
or a time window closes, re-routes the batch in descending weight order, and
writes all surviving flow rules in one commit event; per-request and
window-splitting baselines run the same workload for comparison.
"""

from .config import RunConfig
from .controller import BatchPolicy, make_controller
from .embedder import (
    EmbedOutcome,
    cheapest_feasible_path,
    embed,
    greedy_node_map,
    oracle_embed,
)
from .metrics import MetricsLog, acceptance_rate, export_csv, summary, trace_hash
from .netmodel import (
    Mapping,
    SubstrateNetwork,
    SubstrateView,
    VirtualNetworkRequest,
    load_topology,
    mapping_cost,
    parse_topology,
    reserve,
    topology_text,
    validate_mapping,
)
from .run import run_simulation
from .simulator import Engine, RandomStreams, draw_interarrival, draw_lifetime
from .weights import LinkWeightRecord, link_weight, prioritize, remap_pass
from .workload import (
    GeneratorSpec,
    default_substrate,
    gen_virtual_request,
    generate_workload,
    random_substrate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
