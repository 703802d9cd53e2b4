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

The flip-flops are numbered once, 0..n-1 in ``netlist.flip_flops()``
order, and the graph and every analysis after it (scores, levels, groups,
the bound search, both localizers) run over these ids. A name is read
only where something is emitted: the localization result, the CSVs and
the report. Ties that ids would break arbitrarily are broken by name, so
every output is the one a name-keyed analysis gives.

Each call builds one fanin map from the levels of ``netlist.index``, the
netlist's one ``NetlistIndex``, which refuses a combinational cycle, so
this module checks for none: every net driven by a non-island
combinational cell maps to that cell's input nets, the tuple
``nets[:-1]``. A flip-flop's cone is then a walk of dict lookups
from its d net, through the fanin map, stopping at flip-flop q nets
(sources), at primary inputs and at every other net (island outputs); a
d net outside the fanin map is such a stop itself, one step of the same
walk. The walk visits each net once, so each source is found once and
the id lists need no set. The output-reach pass walks the same map back
from the primary outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .netlist import Netlist


@dataclass
class DependencyGraph:
    """The flip-flop dependency relation of one netlist over flip-flop
    ids, plus one bit per flip-flop at each end: whether a primary input
    reaches its d pin combinationally, and whether its q output reaches a
    primary output. Flip-flop i is named ``ffs[i]``; every other field is
    a list indexed by id, and no id appears twice in one list, so the
    fanin of i is ``len(rdeps[i])`` and its fanout ``len(deps[i])``."""

    ffs: list[str]                  # id -> flip-flop name
    deps: list[list[int]]           # src id -> sink ids, ascending
    rdeps: list[list[int]]          # sink id -> src ids
    input_reach: list[bool]         # id -> a PI is in its d-cone
    output_reach: list[bool]        # id -> drives a PO combinationally

    def edge_count(self):
        return sum(map(len, self.deps))

    @cached_property
    def by_name(self) -> list[int]:
        """The ids in name order: the order of every emitted listing and
        of every tie broken by name."""
        return sorted(range(len(self.ffs)), key=self.ffs.__getitem__)


def extract_dependencies(netlist: Netlist) -> DependencyGraph:
    """Backward cone walk from every flip-flop's d pin over the fanin map.

    Reading ``netlist.index`` raises CombinationalCycleError on a
    combinational loop that no ``analog_island`` cell cuts (the island
    rule of ``NetlistIndex``). The netlist has checked that every net has
    one driver.
    """
    index = netlist.index
    # net -> input nets of its combinational driver; a net absent here
    # ends the walk: a flip-flop output, a primary input or an island net
    fanin = {c.nets[-1]: c.nets[:-1] for level in index.levels for c in level}
    # a flip-flop's nets are d, clk, its rst if bound, then q
    ff_cells = netlist.flip_flops()
    q_id = {c.nets[-1]: i for i, c in enumerate(ff_cells)}
    # no cell drives a primary input, which has its port as its one driver
    pis = set(netlist.input_ports())

    deps: list[list[int]] = [[] for _ in ff_cells]
    rdeps: list[list[int]] = []
    input_reach: list[bool] = []
    fanin_of, source_of = fanin.get, q_id.get
    for i, c in enumerate(ff_cells):
        srcs = []
        reach = False
        seen = set()
        stack = [c.nets[0]]
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
                srcs.append(src)
            elif net in pis:
                reach = True
        rdeps.append(srcs)
        input_reach.append(reach)
        for s in srcs:
            deps[s].append(i)

    # one backward pass from all primary outputs
    marked: set[str] = set()
    stack = netlist.output_ports()
    while stack:
        net = stack.pop()
        if net not in marked:
            marked.add(net)
            stack.extend(fanin.get(net, ()))
    output_reach = [c.nets[-1] in marked for c in ff_cells]
    return DependencyGraph([c.name for c in ff_cells], deps, rdeps,
                           input_reach, output_reach)


def dump_degrees(graph: DependencyGraph) -> str:
    """CSV ``ff,fanin,fanout`` ordered by flip-flop name."""
    ffs, deps, rdeps = graph.ffs, graph.deps, graph.rdeps
    lines = ["ff,fanin,fanout"]
    lines += [f"{ffs[i]},{len(rdeps[i])},{len(deps[i])}" for i in graph.by_name]
    return "\n".join(lines) + "\n"
