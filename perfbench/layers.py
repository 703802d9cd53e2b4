"""Stage-by-stage calls into the kecscope layers for the traced run.

Each function calls the public functions of one or more layers in the
order the CLI calls them, records a span around each call, and returns the
per-layer metrics it measured (names as in BENCHMARK.json).
"""

from __future__ import annotations

from kecscope import locate, sim
from kecscope.depgraph import extract_dependencies
from kecscope.grouping import compute_levels, group_by_levels
from kecscope.locate import (clever_search, expected_state_count,
                             locate_inputs_grouped, locate_inputs_individual,
                             naive_bounds, results_equivalent)
from kecscope.netlist import ANALOG_ISLAND_TAG, parse_netlist, validate
from kecscope.scoring import compute_zscores

VARIANT_CODE = {"grouped": 1, "individual": 2}


def replay_analysis(tracer, text: str, w: int):
    """parse -> validate -> run_pipeline's stages, one span each.

    round_dependency_sets is spanned where clever_search calls it, by
    patching the name inside the locate module for that one call.
    Returns (netlist, result, metrics, problems).
    """
    with tracer.span("replay") as root:
        netlist = tracer.call("netlist.parse", parse_netlist, text)
        problems = tracer.call("netlist.validate", validate, netlist)
        graph = tracer.call("depgraph.extract", extract_dependencies, netlist)
        scores = tracer.call("scoring.zscores", compute_zscores, graph)
        levels = tracer.call("grouping.levels", compute_levels, graph)
        groups = tracer.call("grouping.groups", group_by_levels, levels)
        with tracer.patched([(locate, "round_dependency_sets",
                              "keccak.round_dependency_sets")]):
            bounds, ckff = tracer.call("locate.clever_search", clever_search,
                                       graph, w)

        def localize():
            result = locate_inputs_grouped(scores, groups, graph, ckff, w)
            if not result.found():
                result = locate_inputs_individual(scores, graph, ckff, w)
            return result

        result = tracer.call("locate.localize", localize)
    result.bounds = bounds
    result.expected_state_count = expected_state_count(w)
    search = tracer.last("locate.clever_search")
    metrics = {
        "netlist.parse_ms": tracer.ms("netlist.parse", root),
        "netlist.validate_ms": tracer.ms("netlist.validate", root),
        "netlist.cells": netlist.cell_count(),
        "netlist.ffs": len(graph.ffs),
        "depgraph.extract_ms": tracer.ms("depgraph.extract", root),
        "depgraph.edges": graph.edge_count(),
        "scoring.zscores_ms": tracer.ms("scoring.zscores", root),
        "grouping.levels_ms": tracer.ms("grouping.levels", root),
        "grouping.groups_ms": tracer.ms("grouping.groups", root),
        "grouping.groups": len(groups.regular()),
        "keccak.round_dependency_sets_ms":
            tracer.ms("keccak.round_dependency_sets", root),
        "locate.clever_search_ms": tracer.self_ms(search),
        "locate.candidates": len(ckff),
        # the search widens the fanout ceiling one step at a time from the
        # naive floor, so the final ceiling gives the number of steps
        "locate.ceiling_steps": bounds.foc - naive_bounds(w).fof + 1,
        "locate.localize_ms": tracer.ms("locate.localize", root),
        "locate.variant": VARIANT_CODE.get(result.variant, 0),
    }
    return netlist, result, metrics, problems


def check_replay(result, pipeline_result, cli_inputs) -> list[str]:
    """The replay must agree with run_pipeline and with the CLI report."""
    failures = []
    if pipeline_result is None or not results_equivalent(result,
                                                         pipeline_result):
        failures.append("replay result differs from run_pipeline")
    if cli_inputs is not None and result.input_candidates != cli_inputs:
        failures.append("replay input_candidates differ from the CLI report")
    return failures


def comb_cells(netlist) -> int:
    """Cells the simulator evaluates every cycle."""
    return sum(1 for c in netlist.cells
               if not c.is_seq() and ANALOG_ISLAND_TAG not in c.tags)


def sim_split(tracer, netlist, stimulus, cycles: int, **kwargs):
    """Separate simulator set-up, per-cycle and validation cost from
    outside: the same simulate call at 1 cycle and at full length without
    validation, and at 1 cycle with it. Returns (full trace, metrics)."""
    with tracer.span("sim.split") as root:
        tracer.call("sim.split.one_checked", sim.simulate, netlist, stimulus,
                    1, check=True, **kwargs)
        tracer.call("sim.split.one", sim.simulate, netlist, stimulus, 1,
                    check=False, **kwargs)
        trace = tracer.call("sim.split.full", sim.simulate, netlist,
                            stimulus, cycles, check=False, **kwargs)
    one = tracer.ms("sim.split.one", root)
    per_cycle = (tracer.ms("sim.split.full", root) - one) / (cycles - 1)
    cells = comb_cells(netlist)
    return trace, {
        "sim.setup_ms": one - per_cycle,
        "sim.per_cycle_ms": per_cycle,
        "sim.check_ms": tracer.ms("sim.split.one_checked", root) - one,
        "sim.cell_evals": cells * cycles,
        "sim.ns_per_cell_eval": per_cycle * 1e6 / cells,
    }
