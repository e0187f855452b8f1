"""Deterministic simulator for multicast-based IP mobility versus basic Mobile IP."""

__version__ = "0.1.0"

from .config import ScenarioConfig, reference_suite_config
from .handoff import HandoffConfig, HandoffReport, simulate_handoff, simulate_mip_handoff
from .metrics import RunStats, aggregate, run_stats
from .movement import MovementModel, MovementTrace, generate_trace
from .routing import MulticastTree, StepSample, establish, run_scenario
from .topology import GeneratorParams, PathOracle, Topology, generate, load_edge_list

__all__ = [
    "GeneratorParams",
    "HandoffConfig",
    "HandoffReport",
    "MovementModel",
    "MovementTrace",
    "MulticastTree",
    "PathOracle",
    "RunStats",
    "ScenarioConfig",
    "StepSample",
    "Topology",
    "aggregate",
    "establish",
    "generate",
    "generate_trace",
    "load_edge_list",
    "reference_suite_config",
    "run_scenario",
    "run_stats",
    "simulate_handoff",
    "simulate_mip_handoff",
]
