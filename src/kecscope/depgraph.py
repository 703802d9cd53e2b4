"""Flip-flop to flip-flop sequential dependency extraction.

There is a dependency f2 -> f1 when f1's next value, combinationally traced
back from its d pin, reaches f2's q output: the content of f1 at cycle i
depends on f2 at cycle i-1. Sequential fanin/fanout of a flip-flop are the
sizes of its source/sink sets under that relation.

Tracing rules, fixed here once for every downstream analysis:
  * only the d pin is traced; clk and rst never contribute dependencies,
    so a PI-driven reset does not pollute any cone;
  * mux data and select inputs count alike (structural, not functional);
  * duplicate paths to the same flip-flop count once;
  * cells tagged ``analog_island`` are opaque and never entered: island
    outputs cut every path, the one island rule of ``NetlistIndex``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .netlist import ANALOG_ISLAND_TAG, Netlist, index_netlist


class CombinationalCycleError(Exception):
    pass


@dataclass
class DependencyGraph:
    ffs: list[str]
    deps: dict[str, set[str]]                 # src ff -> sink ffs
    rdeps: dict[str, set[str]]                # sink ff -> src ffs
    input_reach: dict[str, frozenset[str]]    # ff -> PIs in its d-cone
    output_reach: dict[str, bool]             # ff -> drives a PO combinationally

    def fanin(self, ff):
        return len(self.rdeps[ff])

    def fanout(self, ff):
        return len(self.deps[ff])

    def edge_count(self):
        return sum(len(s) for s in self.deps.values())


def extract_dependencies(netlist: Netlist) -> DependencyGraph:
    """Backward cone walk from every flip-flop's d pin.

    Raises CombinationalCycleError on a combinational loop that no
    ``analog_island`` cell cuts (the island rule of ``NetlistIndex``).
    """
    index = index_netlist(netlist)
    if index.cyclic:
        bad = sorted(c.name for c in index.cyclic)
        raise CombinationalCycleError(
            f"combinational cycle outside analog island: {bad[:8]}")
    pis = set(netlist.input_ports())
    pos = set(netlist.output_ports())
    net_driver = index.driver

    ffs = [c.name for c in netlist.cells if c.is_seq()]
    deps: dict[str, set[str]] = {f: set() for f in ffs}
    rdeps: dict[str, set[str]] = {f: set() for f in ffs}
    input_reach: dict[str, frozenset[str]] = {}

    for c in netlist.cells:
        if not c.is_seq():
            continue
        srcs: set[str] = set()
        reached_pis: set[str] = set()
        seen_nets: set[str] = set()
        stack = [c.pins["d"]]
        while stack:
            net = stack.pop()
            if net in seen_nets:
                continue
            seen_nets.add(net)
            drv = net_driver.get(net)
            if drv is None:
                if net in pis:
                    reached_pis.add(net)
                continue
            if drv.is_seq():
                srcs.add(drv.name)
                continue
            if ANALOG_ISLAND_TAG in drv.tags:
                continue
            for _, inet in drv.input_pins():
                stack.append(inet)
        rdeps[c.name] = srcs
        input_reach[c.name] = frozenset(reached_pis)
        for s in srcs:
            deps[s].add(c.name)

    output_reach = _trace_output_reach(netlist, net_driver, pos, ffs)
    return DependencyGraph(ffs, deps, rdeps, input_reach, output_reach)


def _trace_output_reach(netlist, net_driver, pos, ffs):
    """Single backward pass from all POs through combinational cells."""
    marked: set[str] = set()
    stack = [p for p in pos]
    while stack:
        net = stack.pop()
        if net in marked:
            continue
        marked.add(net)
        drv = net_driver.get(net)
        if drv is None or drv.is_seq() or ANALOG_ISLAND_TAG in drv.tags:
            continue
        for _, inet in drv.input_pins():
            stack.append(inet)
    ff_q = {c.name: c.pins["q"] for c in netlist.cells if c.is_seq()}
    return {f: ff_q[f] in marked for f in ffs}


def degree_histogram(graph: DependencyGraph) -> dict[tuple[int, int], int]:
    """(fanin, fanout) -> flip-flop count; counts sum to |ffs|."""
    return dict(Counter((graph.fanin(f), graph.fanout(f)) for f in graph.ffs))


def dump_edges(graph: DependencyGraph) -> str:
    """One ``src dst`` line per dependency edge, sorted."""
    lines = sorted(f"{src} {dst}"
                   for src, dsts in graph.deps.items() for dst in dsts)
    return "\n".join(lines) + ("\n" if lines else "")


def dump_degrees(graph: DependencyGraph) -> str:
    """CSV ``ff,fanin,fanout`` ordered by flip-flop id."""
    lines = ["ff,fanin,fanout"]
    for f in sorted(graph.ffs):
        lines.append(f"{f},{graph.fanin(f)},{graph.fanout(f)}")
    return "\n".join(lines) + "\n"
