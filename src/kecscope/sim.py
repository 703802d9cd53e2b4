"""Deterministic two-valued cycle-accurate netlist simulation.

Net values are Python ints used as bit-parallel vectors, so one pass can
simulate many independent stimuli at once (``batch`` lanes per net). All
flip-flops start at 0 unless overridden through ``init`` or cleared by
their synchronous active-high rst pin.

Cells tagged ``analog_island`` are never levelized or evaluated (the one
island rule of ``NetlistIndex``: island outputs cut every path). Instead
the island's externally driven control nets are sampled every cycle: the
net feeding its NAND2 is the enable, the nets feeding the MUX4 selects
are the two leak bits, and the island contributes a (leak symbol, power)
pair to the trace through a fixed lookup while enabled. The oscillator
itself is analog behavior out of digital scope; its per-symbol mean
frequencies are carried as metadata only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import (ANALOG_ISLAND_TAG, CELL_KINDS, Netlist, index_netlist,
                      validate)

# leak symbol (leak[1] leak[0]) -> dynamic power / mean oscillation frequency
LEAK_POWER_UW = {0: 32.3, 1: 34.2, 2: 36.9, 3: 38.9}
RO_FREQ_MHZ = {0: 639, 1: 671, 2: 732, 3: 767}


class SimulationError(Exception):
    pass


class StimulusError(SimulationError):
    pass


class PortMismatchError(SimulationError):
    pass


@dataclass
class Island:
    cells: list[str]
    enable_net: str | None
    leak_nets: tuple[str, str] | None   # (leak[1], leak[0])


@dataclass
class SimTrace:
    cycles: int
    batch: int
    inputs: list[dict[str, int]]
    outputs: list[dict[str, int]]
    watches: list[dict[str, int]]
    leak: list[int | None]              # symbol when enabled (batch == 1)
    power_uw: list[float]               # 0.0 while the oscillator is off
    island_raw: list[tuple[int, int] | None]  # (enable mask, symbol bits 2*lane)

    def leak_symbols(self):
        return [s for s in self.leak if s is not None]


def parse_stimulus(text: str) -> list[dict[str, int]]:
    """One line per cycle of ``port=bit`` pairs; ``#`` starts a comment."""
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vec = {}
        for item in line.split():
            if "=" not in item:
                raise StimulusError(f"line {lineno}: expected port=bit, got {item!r}")
            port, val = item.split("=", 1)
            if val not in ("0", "1"):
                raise StimulusError(f"line {lineno}: bit must be 0 or 1, got {val!r}")
            vec[port] = int(val)
        vectors.append(vec)
    return vectors


def write_stimulus(vectors) -> str:
    lines = []
    for vec in vectors:
        lines.append(" ".join(f"{p}={v}" for p, v in sorted(vec.items())))
    return "\n".join(lines) + "\n"


class _Compiled:
    """Topologically ordered evaluation plan for one netlist: one
    (eval function, input nets, output net) step per combinational cell."""

    def __init__(self, netlist: Netlist):
        self.pis = netlist.input_ports()
        self.pos = netlist.output_ports()
        self.ffs = [c for c in netlist.cells if c.is_seq()]
        self.islands = _find_islands(netlist, [
            c for c in netlist.cells if ANALOG_ISLAND_TAG in c.tags])
        index = index_netlist(netlist)
        if index.cyclic:
            raise SimulationError("combinational cycle outside analog island")
        self.steps = []
        for c in index.order:
            spec = CELL_KINDS[c.kind]
            self.steps.append((spec.fn, [c.pins[p] for p in spec.inputs],
                               c.pins[spec.outputs[0]]))


def _find_islands(netlist, island_cells):
    if not island_cells:
        return []
    # group island cells into connected components over shared nets
    net_users = {}
    for c in island_cells:
        for net in c.pins.values():
            net_users.setdefault(net, []).append(c.name)
    by_name = {c.name: c for c in island_cells}
    seen = set()
    islands = []
    for c in island_cells:
        if c.name in seen:
            continue
        comp = []
        stack = [c.name]
        seen.add(c.name)
        while stack:
            name = stack.pop()
            comp.append(name)
            for net in by_name[name].pins.values():
                for other in net_users.get(net, []):
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        islands.append(_classify_island(netlist, [by_name[n] for n in comp]))
    return islands


def _classify_island(netlist, cells):
    inside_nets = {net for c in cells for net in c.output_nets()}
    enable = None
    leak = None
    for c in cells:
        ext = {pin: net for pin, net in c.input_pins() if net not in inside_nets}
        if c.kind == "NAND2" and ext:
            enable = next(iter(ext.values()))
        if c.kind == "MUX4" and "s0" in ext and "s1" in ext:
            leak = (ext["s1"], ext["s0"])
    return Island([c.name for c in cells], enable, leak)


def _apply_stimulus(values, vec, pis, cycle, mask, prev):
    for port, bits in vec.items():
        if port not in pis:
            raise StimulusError(f"cycle {cycle}: unknown input port {port!r}")
        values[port] = bits & mask
        prev[port] = bits & mask
    for port in pis:
        if port not in prev:
            raise StimulusError(f"cycle 0: stimulus missing input port {port!r}")
        values[port] = prev[port]


def simulate(netlist: Netlist, stimulus, cycles: int, watch=(), init=None,
             batch: int = 1, check: bool = True) -> SimTrace:
    """Run ``cycles`` clock cycles.

    stimulus: per-cycle dicts of port -> value; cycle 0 must cover every
    input port, later cycles carry unmentioned ports forward. With
    batch > 1 each value is a bit-parallel mask over the batch lanes.
    init presets flip-flop outputs (ff id -> value) before the first cycle.
    Island cells are not evaluated and their outputs read 0; a
    combinational loop that no island cell cuts raises SimulationError
    (the island rule of ``NetlistIndex``).
    """
    if len(stimulus) < cycles:
        raise StimulusError(
            f"stimulus covers {len(stimulus)} cycles, need {cycles}")
    if check:
        problems = validate(netlist)
        if problems:
            raise SimulationError(f"invalid netlist: {problems[:3]}")
    plan = _Compiled(netlist)
    mask = (1 << batch) - 1
    values = dict.fromkeys(netlist.all_nets(), 0)
    q_state = {c.name: 0 for c in plan.ffs}
    if init:
        for ff, val in init.items():
            if ff not in q_state:
                raise SimulationError(f"init names unknown flip-flop {ff!r}")
            q_state[ff] = val & mask

    island = plan.islands[0] if plan.islands else None
    trace = SimTrace(cycles, batch, [], [], [], [], [], [])
    prev: dict[str, int] = {}
    for cycle in range(cycles):
        for c in plan.ffs:
            values[c.pins["q"]] = q_state[c.name]
        _apply_stimulus(values, stimulus[cycle], set(plan.pis), cycle, mask, prev)
        for fn, ins, out in plan.steps:
            values[out] = fn(mask, *map(values.__getitem__, ins))
        trace.inputs.append({p: values[p] for p in plan.pis})
        trace.outputs.append({p: values[p] for p in plan.pos})
        trace.watches.append({n: values[n] for n in watch})
        if island is not None and island.enable_net and island.leak_nets:
            en = values[island.enable_net]
            sym = (values[island.leak_nets[0]] << 1) | values[island.leak_nets[1]]
            trace.island_raw.append((en, sym))
            if batch == 1:
                if en:
                    trace.leak.append(sym)
                    trace.power_uw.append(LEAK_POWER_UW[sym])
                else:
                    trace.leak.append(None)
                    trace.power_uw.append(0.0)
            else:
                trace.leak.append(None)
                trace.power_uw.append(0.0)
        else:
            trace.island_raw.append(None)
            trace.leak.append(None)
            trace.power_uw.append(0.0)
        for c in plan.ffs:
            d = values[c.pins["d"]]
            if "rst" in c.pins:
                d &= ~values[c.pins["rst"]] & mask
            q_state[c.name] = d
    return trace


def equivalence_check(n1: Netlist, n2: Netlist, stimulus, cycles: int) -> bool:
    """True iff primary-output traces agree cycle for cycle. Both designs
    must expose identical port sets."""
    if (set(p.name for p in n1.ports) != set(p.name for p in n2.ports)
            or set(n1.input_ports()) != set(n2.input_ports())):
        raise PortMismatchError("designs expose different primary ports")
    t1 = simulate(n1, stimulus, cycles)
    t2 = simulate(n2, stimulus, cycles)
    return all(a == b for a, b in zip(t1.outputs, t2.outputs))


def dump_trace(trace: SimTrace) -> str:
    """CSV: cycle, each output port, leak symbol, power."""
    ports = sorted(trace.outputs[0]) if trace.outputs else []
    lines = ["cycle," + ",".join(ports) + ",leak,power_uW"]
    for i in range(trace.cycles):
        leak = "" if trace.leak[i] is None else f"{trace.leak[i]:02b}"
        row = [str(i)] + [str(trace.outputs[i][p]) for p in ports]
        row += [leak, f"{trace.power_uw[i]:.1f}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
