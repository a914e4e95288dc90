"""Replicated-system runtime: the paper's operational semantics, executable."""

from .cluster import Cluster, ReplicaHandle
from .faults import (
    AdversaryTrace,
    CrashSpec,
    FaultPlan,
    GossipStats,
    LossyGossipDriver,
    NetworkStats,
    PartitionWindow,
    RELIABLE_PLAN,
    UnreliableCausalBroadcast,
)
from .composition import (
    check_composed_ra_linearizable,
    combine_per_object,
    composed,
    composed_spec,
    composed_ts,
    per_object_rewriting,
)
from .explore_engine import (
    ExploreStats,
    explore_state_programs,
    op_config_key,
    op_orbit_key,
    state_config_key,
    state_orbit_key,
)
from .explore_naive import (
    explore_op_programs_naive,
    explore_state_programs_naive,
)
from .symmetry import SymmetryGroup, build_group, canon_key, replica_classes
from .recording import dumps, loads, record_schedule, replay_schedule
from .schedule import (
    explore_op_programs,
    random_op_execution,
    random_state_execution,
)
from .state_composition import ComposedStateSystem, ObjectMessage
from .state_system import Message, StateBasedSystem
from .system import DEFAULT_OBJECT, OpBasedSystem
from .workloads import (
    CounterWorkload,
    GCounterWorkload,
    GSetWorkload,
    LWWSetWorkload,
    MVRegisterWorkload,
    ORSetWorkload,
    RGAAddAtWorkload,
    RGAWorkload,
    RegisterWorkload,
    TwoPSetWorkload,
    Workload,
    WookiWorkload,
)

__all__ = [
    "AdversaryTrace",
    "CrashSpec",
    "FaultPlan",
    "GossipStats",
    "LossyGossipDriver",
    "NetworkStats",
    "PartitionWindow",
    "RELIABLE_PLAN",
    "UnreliableCausalBroadcast",
    "ComposedStateSystem",
    "ObjectMessage",
    "Cluster",
    "ReplicaHandle",
    "dumps",
    "loads",
    "record_schedule",
    "replay_schedule",
    "check_composed_ra_linearizable",
    "combine_per_object",
    "composed",
    "composed_spec",
    "composed_ts",
    "per_object_rewriting",
    "CounterWorkload",
    "DEFAULT_OBJECT",
    "GCounterWorkload",
    "GSetWorkload",
    "LWWSetWorkload",
    "MVRegisterWorkload",
    "Message",
    "ORSetWorkload",
    "OpBasedSystem",
    "RGAAddAtWorkload",
    "RGAWorkload",
    "RegisterWorkload",
    "StateBasedSystem",
    "TwoPSetWorkload",
    "Workload",
    "WookiWorkload",
    "ExploreStats",
    "explore_op_programs",
    "explore_op_programs_naive",
    "explore_state_programs",
    "explore_state_programs_naive",
    "op_config_key",
    "op_orbit_key",
    "random_op_execution",
    "random_state_execution",
    "state_config_key",
    "state_orbit_key",
    "SymmetryGroup",
    "build_group",
    "canon_key",
    "replica_classes",
]
