"""Structural localization of Keccak cores in blind gate-level netlists,
plus additive insertion of a power side-channel trojan at the recovered
hash input register, backed by a reference accelerator generator and a
cycle-accurate simulator."""

from .depgraph import DependencyGraph, degree_histogram, extract_dependencies
from .generator import GenConfig, GroundTruth, generate_accelerator, generate_core
from .grouping import GroupTable, LevelTable, compute_levels, group_by_levels
from .keccak import KeccakState, keccak_f, round_dependency_sets
from .locate import (KeccakNotPresentError, PipelineConfig, RepqcResult,
                     SearchBounds, clever_search, derive_bounds,
                     filter_state_candidates, locate_inputs_grouped,
                     locate_inputs_individual, naive_bounds, run_pipeline)
from .netlist import Netlist, anonymize, parse_netlist, validate, write_netlist
from .scoring import compute_zscores, dump_scores
from .sim import SimTrace, equivalence_check, simulate
from .trojan import (EcoEdit, HthSpec, insert_hth, overhead_report,
                     reconstruct_secret)

__version__ = "0.1.0"
