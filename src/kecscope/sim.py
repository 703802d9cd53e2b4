"""Deterministic two-valued cycle-accurate netlist simulation.

Net values are Python ints used as bit-parallel vectors, so one pass can
simulate many independent stimuli at once (``batch`` lanes per net). All
flip-flops start at 0 unless overridden through ``init`` or cleared by
their synchronous active-high rst pin. No clock value is read: every
flip-flop captures every cycle, so each one's clk net must be a primary
input, and a flip-flop clocked by any other net (a gated clock, say)
raises SimulationError, naming it and the net, before the first cycle.

A netlist's first ``simulate`` call builds its plan from the levels of
``netlist.index`` (levelized compiled-code simulation, as in
Wang and Maurer's LECSIM) and keeps it on that index
(``NetlistIndex.plan``), so it lives and dies with the netlist, as the
index does, and a later call on the same netlist builds only what its own
arguments need: the watch getter, the ``init`` state, the lane mask and
the values list. The cells of one level never read each other,
so the plan groups them by kind, and the MUX2s of a level further by
select net, in name order. Each group becomes one step: a step function
with its slots. A kind's step function evaluates its ``CELL_KINDS``
expression over a whole group at once; it is generated from the table's
expression and pin names alone and compiled once per process, on first
use, so no ``simulate`` call compiles anything once every kind it meets
has been seen. A MUX2 group's step reads the select its cells share once:
at 0 it passes their a inputs through whole, at every lane (``m``) their
b inputs, and at mixed lanes it evaluates the table's expression per
cell. Every net gets an integer slot in one values list: first the
flip-flop outputs, contiguous and ordered by reset net, then the nets no
step writes (input ports and island outputs), then each group's outputs,
contiguous per group, given as the group is formed. So a step
reads the group's inputs with one ``operator.itemgetter`` per input pin
and writes its outputs as one slice. A cycle loads the flip-flop state as
one slice and the inputs its stimulus names into their slots, runs the
steps, and reads the flip-flop inputs, the outputs and the watched nets
with one getter each. No step writes an input slot, so an input the
stimulus leaves out keeps its last value there.
Each reset net is then read once: at 0 it leaves its flip-flops' next
state alone, at ``m`` it clears their slice, and at mixed lanes it masks
each one. The plan is a fixed cost of a netlist's first call, before its
first cycle; a build that raises (a gated clock, say) keeps no plan, so
the next call builds it again and raises again. The index it is built
from is the netlist's own, built once per netlist, and that index
refuses a combinational cycle (CombinationalCycleError), so the plan
checks for none.

Cells tagged ``analog_island`` are never levelized or evaluated (the one
island rule of ``NetlistIndex``: island outputs cut every path). Instead
the island's control nets, those no island cell drives, are sampled every
cycle: the one read by the first island NAND2 is the enable, the select
nets of the first island MUX4 are the two leak bits. The trace records
the three as lane masks, and derives from them the leak symbol and,
through a fixed lookup, its power while the island is enabled. The
oscillator itself is analog behavior out of digital scope.

:func:`reconstruct_secret` decodes a trace's leak symbols into the word a
trojan leaks, at one of the widths ``ALLOWED_L``. Both sit here, next to
the trace, so that simulating and decoding load no trojan or analysis
code; ``trojan`` imports them from here.

Stealth has two definitions: :func:`equivalence_check` compares the
simulated outputs of two designs on one stimulus, and :func:`extends`
proves them equal on every stimulus from structure alone, when one design
only adds cells and nets to the other, as ``insert_hth`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count, groupby
from operator import attrgetter, itemgetter

from .netlist import ANALOG_ISLAND_TAG, CELL_KINDS, Netlist, validate

# leak symbol (leak[1] leak[0]) -> dynamic power
LEAK_POWER_UW = {0: 32.3, 1: 34.2, 2: 36.9, 3: 38.9}
# the widths of the word a trojan's shift register leaks
ALLOWED_L = (16, 32, 64)

class SimulationError(Exception):
    pass


class StimulusError(SimulationError):
    pass


class PortMismatchError(SimulationError):
    pass


@dataclass
class SimTrace:
    """One record per cycle: primary outputs, watched nets and the
    island's control lane masks (enable, leak[1], leak[0]), None without
    an island. ``leak`` and ``power_uw`` derive from them: the symbol and
    its power while enabled at batch 1, else None and 0.0."""
    batch: int
    outputs: list[dict[str, int]]
    watches: list[dict[str, int]]
    island_raw: list[tuple[int, int, int] | None]

    @property
    def leak(self) -> list[int | None]:
        return [None if self.batch != 1 or raw is None or not raw[0]
                else raw[1] << 1 | raw[2] for raw in self.island_raw]

    @property
    def power_uw(self) -> list[float]:
        return [0.0 if s is None else LEAK_POWER_UW[s] for s in self.leak]

    def leak_symbols(self):
        return [s for s in self.leak if s is not None]


def reconstruct_secret(trace: SimTrace, l: int) -> int | None:
    """Rebuild the leaked word from the trace's leak symbols, MSB first:
    cycle j carries bits (l-1-2j, l-2-2j) on (leak[1], leak[0])."""
    symbols = trace.leak_symbols()
    if len(symbols) < l // 2:
        return None
    value = 0
    for sym in symbols[:l // 2]:
        value = (value << 2) | sym
    return value


def parse_stimulus(text: str) -> list[dict[str, int]]:
    """One line per cycle of ``port=bit`` pairs, each port at most once;
    ``#`` starts a comment."""
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
            if port in vec:
                raise StimulusError(f"line {lineno}: port {port!r} given twice")
            vec[port] = int(val)
        vectors.append(vec)
    return vectors


def write_stimulus(vectors) -> str:
    """The text :func:`parse_stimulus` reads back, each value written as
    0 or 1. A cycle that sets no port has no line, and a value that equals
    neither 0 nor 1 (a multi-lane mask, ``"1"``) has no bit, so each raises
    ValueError."""
    lines = []
    for cycle, vec in enumerate(vectors):
        if not vec:
            raise ValueError(f"cycle {cycle} sets no port")
        for port, v in vec.items():
            if v not in (0, 1):
                raise ValueError(f"cycle {cycle}: port {port!r} must be 0 "
                                 f"or 1, got {v!r}")
        lines.append(" ".join(f"{p}={int(v)}" for p, v in sorted(vec.items())))
    return "\n".join(lines) + "\n"


class _Compiled:
    """Evaluation plan for one netlist, as the module docstring describes,
    built from the netlist alone on its first :func:`simulate` call and
    kept on its index: the steps that :meth:`evaluate` runs in order, the
    slice of the flip-flop outputs (``q``), the reset groups, the input
    port slots, the net -> slot map (``slot``, as long as the values
    list), each flip-flop's position in the state (``ff_pos``, which
    ``init`` reads), and getters that each return a tuple: of the
    flip-flop d inputs, the output ports and the island's control nets.
    What a call's arguments decide (the watched nets, the ``init`` state,
    the lane mask and the values list) is built per call by
    :func:`simulate`. Slots run flip-flop outputs first, then input
    ports and island outputs, then each group's outputs, given as the
    group is formed, so each step is built as soon as its group is: a
    group reads only nets slotted before it. The flip-flops are grouped
    by reset net, each group in ``Netlist.flip_flops`` order and the
    groups in the order of their first flip-flops there, so the
    flip-flops of one reset net take one slice of the state. So a cycle
    loads the state as one slice and reads each getter once. Pins are
    read by position in ``Cell.nets``: a flip-flop's d, clk, rst if
    bound, then q, and a group's gathers one input position at a time.
    No net or cell name reaches generated source, and no step is
    compiled here: each is a step function of :func:`_kind_step` or
    :func:`_select_step` with its slots and gathers. Every pin is on a
    declared net driven once, which the netlist checked when it was made,
    so every pin has one slot, and the nets are the input ports and the
    cells' outputs."""

    def __init__(self, netlist: Netlist):
        index = netlist.index
        # no clock value is read: every flip-flop captures every cycle,
        # which holds only for one clocked straight from an input port
        inputs = netlist.input_ports()
        ports = set(inputs)
        by_reset: dict[str | None, list] = {}
        for c in netlist.flip_flops():
            if c.nets[1] not in ports:
                raise SimulationError(
                    f"flip-flop {c.name!r} is clocked by net {c.nets[1]!r},"
                    " which is no primary input")
            by_reset.setdefault(c.nets[2] if len(c.nets) == 4 else None,
                                []).append(c)
        ffs = [c for group in by_reset.values() for c in group]
        self.q = slice(0, len(ffs))
        self.ff_pos = {c.name: i for i, c in enumerate(ffs)}
        island = [c for c in netlist.cells if ANALOG_ISLAND_TAG in c.tags]
        # the flip-flop outputs, then the nets no step writes (input ports
        # and the outputs of island cells that are no flip-flop), then each
        # group's outputs as the group is formed; no net is driven twice,
        # so no net takes two slots
        slot = {c.nets[-1]: i for i, c in enumerate(ffs)}
        slot.update(zip(inputs, count(len(slot))))
        slot.update(zip([n for c in island if (n := c.nets[-1]) not in slot],
                        count(len(slot))))
        kind = attrgetter("kind")
        self.steps = []
        for level in index.levels:
            for k, cells in groupby(sorted(level, key=kind), kind):
                # one MUX2 group per select net, in name order
                for group in ([list(run) for _, run in groupby(
                                   sorted(cells, key=_select), _select)]
                              if k == "MUX2" else [list(cells)]):
                    slot.update(zip([c.nets[-1] for c in group],
                                    count(len(slot))))
                    self.steps.append(_step(group, slot))
        self.slot = slot
        self.d = _getter([slot[c.nets[0]] for c in ffs])
        # (slot of a reset net, its flip-flops' slice of the state, as
        # many zeros)
        self.resets = []
        start = 0
        for net, group in by_reset.items():
            if net is not None:
                span = slice(start, start + len(group))
                self.resets.append((slot[net], span, [0] * len(group)))
            start += len(group)
        self.pis = {p: slot[p] for p in inputs}
        self.po_names = netlist.output_ports()
        self.po = _getter([slot[p] for p in self.po_names])
        controls = _island_controls(island)   # (enable, leak[1], leak[0])
        self.island = None if controls is None else itemgetter(
            *(slot[n] for n in controls))

    def evaluate(self, v, m):
        """One pass of the combinational cells over values ``v`` with
        lane mask ``m``."""
        for step, args in self.steps:
            step(v, m, *args)


def _step(cells, slot):
    """(step function, its arguments after ``v, m``) for one group of
    same-kind cells whose outputs hold slots s to e - 1 of ``slot``: s, e,
    then for a MUX2 group the slot of the select its cells share and the
    gathers of a and b, else one gather per input pin. A gather returns
    the group's values of one input pin as a tuple."""
    kind = cells[0].kind
    start = slot[cells[0].nets[-1]]
    args = [start, start + len(cells)]
    if kind == "MUX2":
        step, pins = _select_step(), 2
        args.append(slot[_select(cells[0])])
    else:
        step, pins = _kind_step(kind), len(CELL_KINDS[kind].inputs)
    args += [_getter([slot[c.nets[i]] for c in cells]) for i in range(pins)]
    return step, tuple(args)


def _select(cell):
    """A MUX2's select net."""
    return cell.nets[2]


def _function(source):
    """The function ``f`` that ``source`` defines."""
    namespace = {}
    exec(compile(source, "<kecscope.sim step>", "exec"), namespace)
    return namespace["f"]


@cache
def _kind_step(kind):
    """The step function of a group of ``kind`` cells, built once per
    process from the kind's ``CELL_KINDS`` expression and pin names:
    ``f(v, m, s, e, *gathers)`` writes the group's outputs to ``v[s:e]``,
    from one gather per input pin."""
    spec = CELL_KINDS[kind]
    gathers = [f"_g{i}" for i in range(len(spec.inputs))]
    if not gathers:
        values = f"[{spec.expr}] * (_e - _s)"
    else:
        reads = [f"{g}(v)" for g in gathers]
        source = reads[0] if len(reads) == 1 else f"zip({', '.join(reads)})"
        values = f"[{spec.expr} for {', '.join(spec.inputs)} in {source}]"
    # every parameter but v and m starts with _, so that no pin name (a
    # MUX2's s among them) shadows one
    params = ", ".join(["v", "m", "_s", "_e", *gathers])
    return _function(f"def f({params}):\n    v[_s:_e] = {values}\n")


@cache
def _select_step():
    """The step function of a group of MUX2 cells that share one select,
    built once per process: ``f(v, m, s, e, sel, ga, gb)`` reads the
    select's slot ``sel`` once. At 0 it writes the a gather to
    ``v[s:e]`` whole, at the full mask ``m`` the b gather, and at any
    other value it evaluates the ``CELL_KINDS`` expression per cell with
    the select bound once."""
    a, b, s = CELL_KINDS["MUX2"].inputs
    return _function(
        "def f(v, m, _s, _e, _sel, _ga, _gb):\n"
        f"    {s} = v[_sel]\n"
        f"    if not {s}:\n"
        "        v[_s:_e] = _ga(v)\n"
        f"    elif {s} == m:\n"
        "        v[_s:_e] = _gb(v)\n"
        "    else:\n"
        f"        v[_s:_e] = [{CELL_KINDS['MUX2'].expr}"
        f" for {a}, {b} in zip(_ga(v), _gb(v))]\n")


def _getter(slots):
    """``itemgetter(*slots)``, but a tuple for any number of slots: a
    one-slot itemgetter returns the value alone, and one of no slots
    cannot be made."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        slot, = slots
        return lambda v: (v[slot],)
    return lambda v: ()


def _island_controls(cells):
    """(enable, leak[1], leak[0]) nets of the analog island of a netlist's
    ``cells``, or None: the first outside input of an island NAND2 and the
    selects (nets 4 and 5) of the first island MUX4 whose selects are both
    outside, in cell order. Outside means driven by no island cell."""
    island = [c for c in cells if ANALOG_ISLAND_TAG in c.tags]
    inside = {c.nets[-1] for c in island}
    enables = [net for c in island if c.kind == "NAND2"
               for net in c.nets[:-1] if net not in inside]
    leaks = [(c.nets[5], c.nets[4]) for c in island
             if c.kind == "MUX4" and inside.isdisjoint(c.nets[4:6])]
    return (enables[0], *leaks[0]) if enables and leaks else None


def simulate(netlist: Netlist, stimulus, cycles: int, watch=(), init=None,
             batch: int = 1, check: bool = True) -> SimTrace:
    """Run ``cycles`` clock cycles.

    stimulus: per-cycle dicts of port -> value; cycle 0 must cover every
    input port, and a later cycle that leaves a port out keeps its value.
    With batch > 1 each value is a bit-parallel mask over the batch lanes.
    A port that is no input port raises StimulusError at the cycle that
    gives it; at cycle 0 that comes before the check that every input
    port is given, which names the first one left out, in port order.
    init presets flip-flop outputs (ff id -> value) before the first cycle.
    Island cells are not evaluated and their outputs read 0. A watch net
    that does not exist, a negative cycle count, a batch of fewer than
    one lane and a flip-flop whose clk net is no input port raise
    SimulationError; a combinational loop that no island cell cuts
    raises the CombinationalCycleError of ``netlist.index`` (the
    island rule of ``NetlistIndex``), which the plan reads. The plan is
    built on the netlist's first call, before its first cycle, and kept
    on ``netlist.index`` for every later call on that netlist; a call
    builds only the watch getter, the ``init`` state, the lane mask and
    the values list (``SimTrace`` says what the trace records). So a
    netlist whose build raised, for a gated clock, raises again on every
    call, and an error of a call's own arguments leaves the kept plan as
    it was. ``check`` changes nothing but the order of
    work: it raises the error :func:`validate` returns, the plan's own,
    before the plan is built or read. Nothing in this package passes it; it stays
    because the benchmark's simulator split passes it to time the check
    apart.
    """
    if cycles < 0:
        raise SimulationError(f"cycle count must not be negative, got {cycles}")
    if batch < 1:
        raise SimulationError(f"batch must be at least 1 lane, got {batch}")
    if len(stimulus) < cycles:
        raise StimulusError(
            f"stimulus covers {len(stimulus)} cycles, need {cycles}")
    if check and (problems := validate(netlist)):
        # popped: a list that still held the error would be a reference
        # cycle through its traceback and this frame
        raise problems.pop()
    index = netlist.index
    plan = index.plan
    if plan is None:
        # assigned only once built, so a build that raises keeps none
        plan = index.plan = _Compiled(netlist)
    watch_names = list(watch)
    for net in watch_names:
        if net not in plan.slot:
            raise SimulationError(f"watch names unknown net {net!r}")
    watches = _getter([plan.slot[n] for n in watch_names])
    mask = (1 << batch) - 1
    q_state = [0] * len(plan.ff_pos)
    if init:
        for ff, val in init.items():
            if ff not in plan.ff_pos:
                raise SimulationError(f"init names unknown flip-flop {ff!r}")
            q_state[plan.ff_pos[ff]] = val & mask

    v = [0] * len(plan.slot)
    trace = SimTrace(batch, [], [], [])
    for cycle in range(cycles):
        v[plan.q] = q_state
        # no step writes an input slot, so a port holds its value there
        # until the stimulus names it again
        for port, bits in stimulus[cycle].items():
            if port not in plan.pis:
                raise StimulusError(f"cycle {cycle}: unknown input port {port!r}")
            v[plan.pis[port]] = bits & mask
        if not cycle and (missing := [p for p in plan.pis
                                      if p not in stimulus[0]]):
            raise StimulusError(
                f"cycle 0: stimulus missing input port {missing[0]!r}")
        plan.evaluate(v, mask)
        trace.outputs.append(dict(zip(plan.po_names, plan.po(v))))
        trace.watches.append(dict(zip(watch_names, watches(v))))
        trace.island_raw.append(None if plan.island is None
                                else plan.island(v))
        q_state = plan.d(v)
        if plan.resets:
            q_state = list(q_state)
            for slot, span, zeros in plan.resets:
                reset = v[slot]
                if reset == mask:
                    q_state[span] = zeros
                elif reset:
                    # every value lies within the mask, so ^ mask is NOT
                    keep = reset ^ mask
                    q_state[span] = [q & keep for q in q_state[span]]
    return trace


def check_ports(n1: Netlist, n2: Netlist) -> None:
    """Raise PortMismatchError unless both designs expose the same ports
    (name and direction), the comparison :func:`extends` makes."""
    if set(n1.ports) != set(n2.ports):
        raise PortMismatchError("designs expose different primary ports")


def outputs_equal(t1: SimTrace, t2: SimTrace) -> bool:
    """True iff two traces' primary outputs agree cycle for cycle."""
    return all(a == b for a, b in zip(t1.outputs, t2.outputs))


def extends(netlist: Netlist, baseline: Netlist) -> bool:
    """True iff ``netlist`` only adds to ``baseline``: both have the same
    ports (name and direction), and every baseline cell equals the cell
    that drives its output net in ``netlist``.

    ``netlist.index`` must exist, so ``netlist`` is acyclic. Each
    baseline net is driven once, by a baseline input port or cell, as
    the baseline checked when it was made; so it is driven in both
    designs by the same port or cell. The baseline's cells are then a
    subset of an acyclic netlist, so the baseline is acyclic too, and every
    baseline net, its outputs among them, takes the same value in both
    designs in every cycle of every stimulus, as long as the flip-flops
    they share start alike (as they do without ``init``). That verdict is
    stronger than the one :func:`equivalence_check` gives on one
    stimulus, and it needs only a map of the cells of ``netlist`` by
    output net, built here, with no index, plan or run of either design.
    """
    if set(netlist.ports) != set(baseline.ports):
        return False
    driver = {c.nets[-1]: c for c in netlist.cells}
    return all(c == driver.get(c.nets[-1]) for c in baseline.cells)


def equivalence_check(n1: Netlist, n2: Netlist, stimulus, cycles: int) -> bool:
    """True iff primary-output traces agree cycle for cycle on this
    stimulus. Both designs must expose identical port sets. This is the
    simulated definition that :func:`extends` decides from structure
    when one design only adds to the other."""
    check_ports(n1, n2)
    return outputs_equal(simulate(n1, stimulus, cycles),
                         simulate(n2, stimulus, cycles))


def dump_trace(trace: SimTrace, ports) -> str:
    """CSV: cycle, each output port in ``ports`` (in that order), leak
    symbol, power. The header comes from ``ports``, not from the trace,
    so it names every output port even for a run of no cycles."""
    lines = [",".join(["cycle", *ports, "leak", "power_uW"])]
    for i, (out, leak, power) in enumerate(
            zip(trace.outputs, trace.leak, trace.power_uw)):
        row = [str(i)] + [str(out[p]) for p in ports]
        row += ["" if leak is None else f"{leak:02b}", f"{power:.1f}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
