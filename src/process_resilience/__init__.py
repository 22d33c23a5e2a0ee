"""Connectivity resilience in the random graph process.

Samplers for the edge-arrival process and its binomial relatives, hitting
times, giants and k-cores, degree classification and structural audits,
exact and constructive disconnection attacks under per-vertex budgets, and
seeded Monte Carlo studies.
"""

from .classify import (
    AuditReport,
    VertexClassification,
    audit_atyp_size,
    audit_edge_counts,
    audit_neighbourhoods,
    classify_vertices,
)
from .graphs import (
    Graph,
    GraphFormatError,
    ball,
    build_graph,
    connected_components,
    format_graph_text,
    giant_component,
    induced_subgraph,
    is_connected,
    is_k_connected,
    k_core,
    parse_graph_text,
)
from .process import (
    CoupledSample,
    ProcessTrace,
    graph_at,
    hitting_time_k_connectivity,
    hitting_time_min_degree,
    pair_count,
    sample_coupled,
    sample_gnm,
    sample_gnp,
    sample_process,
)
from .resilience import (
    AttackError,
    AttackOutcome,
    BudgetRule,
    Cut,
    PartitionCollapsedError,
    RearrangementOverflowError,
    ResilienceReport,
    attack_ratios,
    budget_allows,
    cherry_attack,
    connectivity_resilience_threshold,
    crossing_edges,
    cut_from_json_dict,
    cut_to_json_dict,
    find_disconnecting_attack,
    find_k_conn_attack,
    greedy_partition_attack,
    replay_cut,
)
from .rng import GENERATOR_ID, derive_seed, generator, splitmix64

__version__ = "0.1.0"
