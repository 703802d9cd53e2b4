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

Each call builds one fanin map from the ordered cells of
``netlist.index``, the netlist's one ``NetlistIndex``: every net driven
by a non-island combinational cell maps to the tuple of that cell's input
nets. A flip-flop's cone is then a walk of dict lookups from its d net,
through the fanin map, stopping at flip-flop q nets (sources), at
primary inputs and at every other net (island outputs). A d net outside
the fanin map is such a stop itself, so that trivial cone takes its one
source without a walk. The output-reach pass walks the same map back from
the primary outputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .netlist import CELL_KINDS, Netlist


class CombinationalCycleError(Exception):
    """A netlist whose dependencies are undefined: one with a
    combinational cycle."""


@dataclass
class DependencyGraph:
    """The flip-flop dependency relation of one netlist, plus one bit per
    flip-flop at each end: whether a primary input reaches its d pin
    combinationally, and whether its q output reaches a primary output."""

    ffs: list[str]
    deps: dict[str, set[str]]       # src ff -> sink ffs
    rdeps: dict[str, set[str]]      # sink ff -> src ffs
    input_reach: dict[str, bool]    # ff -> a PI is in its d-cone
    output_reach: dict[str, bool]   # ff -> drives a PO combinationally

    def fanin(self, ff):
        return len(self.rdeps[ff])

    def fanout(self, ff):
        return len(self.deps[ff])

    def edge_count(self):
        return sum(len(s) for s in self.deps.values())


def extract_dependencies(netlist: Netlist) -> DependencyGraph:
    """Backward cone walk from every flip-flop's d pin over the fanin map.

    Raises CombinationalCycleError on a combinational loop that no
    ``analog_island`` cell cuts (the island rule of ``NetlistIndex``).
    The netlist has checked that every net has one driver.
    """
    index = netlist.index
    if index.cyclic:
        bad = sorted(c.name for c in index.cyclic)
        raise CombinationalCycleError(
            f"combinational cycle outside analog island: {bad[:8]}")
    # net -> input nets of its combinational driver; a net absent here
    # ends the walk: a flip-flop output, a primary input or an island net
    fanin: dict[str, tuple[str, ...]] = {}
    for c in index.order:
        out = CELL_KINDS[c.kind].output
        fanin[c.pins[out]] = tuple(n for p, n in c.pins.items() if p != out)
    ff_cells = netlist.flip_flops()
    ffs = [c.name for c in ff_cells]
    q_ff = {c.pins["q"]: c.name for c in ff_cells}
    # no cell drives a primary input, which has its port as its one driver
    pis = set(netlist.input_ports())

    deps: dict[str, set[str]] = {f: set() for f in ffs}
    rdeps: dict[str, set[str]] = {}
    input_reach: dict[str, bool] = {}
    fanin_of, source_of = fanin.get, q_ff.get
    for c in ff_cells:
        d = c.pins["d"]
        ins = fanin_of(d)
        if ins is None:   # d is a flip-flop q, a primary input or an island net
            src = source_of(d)
            srcs = set() if src is None else {src}
            reach = d in pis
        else:
            srcs = set()
            reach = False
            seen = {d}
            stack = list(ins)
            while stack:
                net = stack.pop()
                if net in seen:
                    continue
                seen.add(net)
                ins = fanin_of(net)
                if ins is not None:
                    stack += ins
                    continue
                src = source_of(net)
                if src is not None:
                    srcs.add(src)
                elif net in pis:
                    reach = True
        rdeps[c.name] = srcs
        input_reach[c.name] = reach
        for s in srcs:
            deps[s].add(c.name)

    # one backward pass from all primary outputs
    marked: set[str] = set()
    stack = netlist.output_ports()
    while stack:
        net = stack.pop()
        if net not in marked:
            marked.add(net)
            stack.extend(fanin.get(net, ()))
    output_reach = {c.name: c.pins["q"] in marked for c in ff_cells}
    return DependencyGraph(ffs, deps, rdeps, input_reach, output_reach)


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
