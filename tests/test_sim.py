import builtins
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecscope.netlist import (ANALOG_ISLAND_TAG, CELL_KINDS, ArityMismatchError,
                              Cell, CombinationalCycleError,
                              DeclarationError, Netlist, Port,
                              UnknownCellKindError, index_netlist,
                              parse_netlist, validate, write_netlist)
from kecscope.sim import (LEAK_POWER_UW, PortMismatchError,
                          SimTrace, SimulationError, StimulusError,
                          _island_controls, dump_trace, equivalence_check,
                          extends, parse_stimulus, simulate, write_stimulus)

TOGGLE = """\
module t
input clk
output q
net nq
cell DFF f1 d=nq clk=clk q=q
cell INV i1 a=q y=nq
endmodule
"""

# the flip-flop of TOGGLE, clocked through an AND2 of clk and an enable
GATED = """\
module g
input clk
input en
output q
net gclk
net nq
cell AND2 g1 a=clk b=en y=gclk
cell DFF f1 d=nq clk=gclk q=q
cell INV i1 a=q y=nq
endmodule
"""

RO_ISLAND = """\
module ro
input clk
input en
input l0
input l1
output q
net fb
net n1
net i0
net b0
net b1
net b2
net b3
cell NAND2 ron a=fb b=en y=n1 tag=analog_island
cell INV roi a=n1 y=i0 tag=analog_island
cell BUF rb0 a=i0 y=b0 tag=analog_island
cell BUF rb1 a=i0 y=b1 tag=analog_island
cell BUF rb2 a=i0 y=b2 tag=analog_island
cell BUF rb3 a=i0 y=b3 tag=analog_island
cell MUX4 rom a=b0 b=b1 c=b2 d=b3 s0=l0 s1=l1 y=fb tag=analog_island
cell DFF f1 d=en clk=clk q=q
endmodule
"""


def _stim(n, cycles, **overrides):
    base = {p: 0 for p in n.input_ports()}
    base.update(overrides)
    return [dict(base) for _ in range(cycles)]


# per-lane boolean definition of every combinational kind, inputs in pin order
TRUTH = {
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "NAND2": lambda a, b: 1 - (a & b),
    "NOR2": lambda a, b: 1 - (a | b),
    "MUX2": lambda a, b, s: b if s else a,
    "MUX4": lambda a, b, c, d, s0, s1: (a, b, c, d)[2 * s1 + s0],
    "TIE0": lambda: 0,
    "TIE1": lambda: 1,
}


def test_truth_table_covers_every_combinational_kind():
    assert set(TRUTH) == {k for k in CELL_KINDS if k != "DFF"}


@pytest.mark.parametrize("kind", sorted(TRUTH))
def test_cell_truth_table(kind):
    # lane i carries the input combination whose bit j is input j
    pins = CELL_KINDS[kind].inputs
    lanes = 1 << len(pins)
    n = Netlist(name="tt", ports=[Port(p, "in") for p in pins] + [Port("y", "out")],
                cells=[Cell(kind, "u", {**{p: p for p in pins}, "y": "y"})])
    column = {p: sum(1 << i for i in range(lanes) if (i >> j) & 1)
              for j, p in enumerate(pins)}
    tr = simulate(n, [column], 1, batch=lanes)
    want = sum(TRUTH[kind](*((i >> j) & 1 for j in range(len(pins)))) << i
               for i in range(lanes))
    assert tr.outputs[0]["y"] == want


@pytest.mark.parametrize("batch", [1, 3, 64])
@pytest.mark.parametrize("kind", sorted(TRUTH))
def test_cell_truth_table_on_uniform_and_mixed_lanes(kind, batch):
    # one cycle per combination of inputs that are 0 or m in every lane
    # or, beyond batch 1, a mixed value of their own; so a MUX2 takes
    # its two picks and its bitwise form, and every ^ m form meets inputs
    # at both ends of the lane mask
    rng = random.Random(batch)
    m = (1 << batch) - 1
    pins = CELL_KINDS[kind].inputs
    n = Netlist(name="tt", ports=[Port(p, "in") for p in pins] + [Port("y", "out")],
                cells=[Cell(kind, "u", {**{p: p for p in pins}, "y": "y"})])
    values = [[0, m] + ([rng.randrange(1, m)] if batch > 1 else [])
              for _ in pins]
    combos = list(product(*values))
    tr = simulate(n, [dict(zip(pins, c)) for c in combos], len(combos),
                  batch=batch)
    want = [sum(TRUTH[kind](*((x >> i) & 1 for x in c)) << i
                for i in range(batch)) for c in combos]
    assert [o["y"] for o in tr.outputs] == want


def test_toggle_flip_flop():
    n = parse_netlist(TOGGLE)
    tr = simulate(n, _stim(n, 6), 6)
    assert [o["q"] for o in tr.outputs] == [0, 1, 0, 1, 0, 1]


def test_determinism():
    n = parse_netlist(TOGGLE)
    a = simulate(n, _stim(n, 8), 8)
    b = simulate(n, _stim(n, 8), 8)
    assert a.outputs == b.outputs


def test_checked_simulate_indexes_once(monkeypatch):
    from kecscope import netlist
    calls = []

    def counted(n):
        calls.append(n)
        return index_netlist(n)

    # validate and the compile both read the netlist's one index
    monkeypatch.setattr(netlist, "index_netlist", counted)
    n = parse_netlist(TOGGLE)
    simulate(n, _stim(n, 2), 2, check=True)
    assert len(calls) == 1
    # a second call reads the index the first one built
    simulate(n, _stim(n, 2), 2, check=True)
    assert len(calls) == 1


def test_stimulus_too_short():
    n = parse_netlist(TOGGLE)
    with pytest.raises(StimulusError):
        simulate(n, _stim(n, 3), 5)


def test_stimulus_must_cover_ports_on_first_cycle():
    n = parse_netlist(TOGGLE)
    with pytest.raises(StimulusError):
        simulate(n, [{}], 1)


def test_stimulus_carry_forward():
    n = parse_netlist("module m\ninput a\noutput y\n"
                      "cell BUF b1 a=a y=y\nendmodule\n")
    tr = simulate(n, [{"a": 1}, {}, {"a": 0}, {}], 4)
    assert [o["y"] for o in tr.outputs] == [1, 1, 0, 0]
    # at batch > 1 an omitted port keeps its value masked to the lanes
    tr = simulate(n, [{"a": 0b110101}, {}, {"a": 0b10}, {}], 4, batch=4)
    assert [o["y"] for o in tr.outputs] == [0b0101, 0b0101, 0b10, 0b10]


# input ports c, a, b: port order is neither name nor stimulus order
THREE_INPUTS = """\
module m
input c
input a
input b
output y
cell AND2 g a=a b=b y=y
endmodule
"""


def test_unknown_port_rejected():
    n = parse_netlist(TOGGLE)
    with pytest.raises(StimulusError):
        simulate(n, [{"clk": 0, "bogus": 1}], 1)
    n = parse_netlist(THREE_INPUTS)
    full = {"a": 1, "b": 1, "c": 1}
    cases = [
        # at cycle 0 an unknown port is reported before a missing one
        ([{"bogus": 1}], 1, "cycle 0: unknown input port 'bogus'"),
        ([{"a": 1, "y": 1}], 1, "cycle 0: unknown input port 'y'"),
        # a missing port is the first input port, in port order, left out
        ([{"b": 1}], 1, "cycle 0: stimulus missing input port 'c'"),
        ([{"b": 1, "c": 1}], 1, "cycle 0: stimulus missing input port 'a'"),
        ([{"c": 1, "a": 1}], 1, "cycle 0: stimulus missing input port 'b'"),
        # an unknown port after cycle 0 raises at its own cycle
        ([full, {}, {"a": 0}, {"a": 1, "bogus": 0}], 4,
         "cycle 3: unknown input port 'bogus'"),
    ]
    for stimulus, cycles, message in cases:
        with pytest.raises(StimulusError) as e:
            simulate(n, stimulus, cycles)
        assert str(e.value) == message
    # not before: three cycles never read the fourth
    stimulus = [full, {}, {"a": 0}, {"bogus": 0}]
    assert [o["y"] for o in simulate(n, stimulus, 3).outputs] == [1, 1, 0]


def test_synchronous_reset():
    n = parse_netlist("module m\ninput clk\ninput rst\ninput d\noutput q\n"
                      "cell DFF f1 d=d clk=clk rst=rst q=q\nendmodule\n")
    stim = [{"clk": 0, "rst": 0, "d": 1},
            {"rst": 1},
            {"rst": 0, "d": 0}]
    tr = simulate(n, stim, 3)
    assert [o["q"] for o in tr.outputs] == [0, 1, 0]


def test_init_override():
    n = parse_netlist(TOGGLE)
    tr = simulate(n, _stim(n, 2), 2, init={"f1": 1})
    assert [o["q"] for o in tr.outputs] == [1, 0]


def test_island_leak_and_power():
    n = parse_netlist(RO_ISLAND)
    stim = [{"clk": 0, "en": 0, "l0": 0, "l1": 0},
            {"en": 1, "l0": 1, "l1": 0},
            {"en": 1, "l0": 0, "l1": 1},
            {"en": 1, "l0": 1, "l1": 1},
            {"en": 0}]
    tr = simulate(n, stim, 5)
    assert tr.leak == [None, 1, 2, 3, None]
    assert tr.power_uw == [0.0, 34.2, 36.9, 38.9, 0.0]
    assert tr.leak_symbols() == [1, 2, 3]
    assert tr.island_raw == [(0, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
                             (0, 1, 1)]


def test_island_samples_keep_every_lane_at_batch_2():
    # lane 0 holds symbol 2 in both cycles, lane 1 symbol 1 and then 0;
    # one int (leak[1] << 1) | leak[0] would shift lane 0's leak[1] onto
    # lane 1's leak[0] and read 2 in both cycles
    n = parse_netlist(RO_ISLAND)
    stim = [{"clk": 0, "en": 0b11, "l1": 0b01, "l0": 0b10},
            {"l0": 0b00}]
    tr = simulate(n, stim, 2, batch=2)
    assert tr.island_raw[0] != tr.island_raw[1]
    assert tr.island_raw == [(0b11, 0b01, 0b10), (0b11, 0b01, 0b00)]
    # lanes are leaked one symbol at a time only at batch 1
    assert tr.leak == [None, None] and tr.power_uw == [0.0, 0.0]
    assert tr == _reference(n, stim, 2, batch=2)


SECOND_ISLAND = """\
input en2
input m0
input m1
net gb
net g1
net j0
net c0
net c1
net c2
net c3
cell NAND2 xon a=gb b=en2 y=g1 tag=analog_island
cell INV xoi a=g1 y=j0 tag=analog_island
cell BUF xb0 a=j0 y=c0 tag=analog_island
cell BUF xb1 a=j0 y=c1 tag=analog_island
cell BUF xb2 a=j0 y=c2 tag=analog_island
cell BUF xb3 a=j0 y=c3 tag=analog_island
cell MUX4 xom a=c0 b=c1 c=c2 d=c3 s0=m0 s1=m1 y=gb tag=analog_island
endmodule
"""


def test_first_of_two_islands_is_sampled():
    n = parse_netlist(RO_ISLAND.replace("endmodule\n", SECOND_ISLAND))
    assert _island_controls(n.cells) == ("en", "l1", "l0")
    stim = [{"clk": 0, "en": 1, "l0": 1, "l1": 0, "en2": 1, "m0": 0, "m1": 1},
            {"en": 0},
            {"en": 1, "l0": 0, "l1": 1, "en2": 0, "m0": 1}]
    tr = simulate(n, stim, 3)
    assert tr.leak == [1, None, 2]
    assert tr == _reference(n, stim, 3)


def test_power_lookup_table():
    assert LEAK_POWER_UW == {0: 32.3, 1: 34.2, 2: 36.9, 3: 38.9}


def test_batch_lanes_independent():
    n = parse_netlist(TOGGLE)
    tr = simulate(n, _stim(n, 4), 4, init={"f1": 0b10}, batch=2)
    # lane 0 starts at 0, lane 1 starts at 1
    assert [o["q"] for o in tr.outputs] == [0b10, 0b01, 0b10, 0b01]


def test_equivalence_reflexive():
    n = parse_netlist(TOGGLE)
    assert equivalence_check(n, parse_netlist(TOGGLE), _stim(n, 5), 5)


def test_equivalence_detects_difference():
    n1 = parse_netlist(TOGGLE)
    n2 = parse_netlist(TOGGLE.replace("cell INV i1 a=q y=nq",
                                      "cell BUF i1 a=q y=nq"))
    assert not equivalence_check(n1, n2, _stim(n1, 5), 5)


def test_equivalence_port_mismatch():
    n1 = parse_netlist(TOGGLE)
    n2 = parse_netlist(TOGGLE.replace("input clk", "input clock")
                       .replace("clk=clk", "clk=clock"))
    with pytest.raises(PortMismatchError):
        equivalence_check(n1, n2, _stim(n1, 2), 2)
    # the same port names, but b is an input of one and an output of the
    # other
    n1 = parse_netlist("module m\ninput a\ninput b\noutput y\n"
                       "cell AND2 g a=a b=b y=y\nendmodule\n")
    n2 = parse_netlist("module m\ninput a\noutput b\noutput y\n"
                       "cell INV h a=a y=b\ncell AND2 g a=a b=b y=y\n"
                       "endmodule\n")
    assert {p.name for p in n1.ports} == {p.name for p in n2.ports}
    with pytest.raises(PortMismatchError):
        equivalence_check(n1, n2, _stim(n1, 2), 2)


def test_a_gated_clock_is_refused_before_the_first_cycle():
    # no clock value is read and every flip-flop captures every cycle, so
    # a flip-flop clocked through an enable gate would hold in silicon
    # where the trace toggles; the plan refuses it, before cycle 0 reads
    # its stimulus
    n = parse_netlist(GATED)
    message = ("flip-flop 'f1' is clocked by net 'gclk', which is no "
               "primary input")
    for stimulus, cycles in [(_stim(n, 3), 3), ([], 0), ([{"nope": 1}], 1)]:
        with pytest.raises(SimulationError) as caught:
            simulate(n, stimulus, cycles)
        assert str(caught.value) == message


def test_a_clock_gated_generated_design_is_refused(oracle_w8):
    # clock gating as synthesis applies it: a flip-flop whose d is a hold
    # MUX2 (a is its own q) reads the mux's b instead and is clocked by
    # AND2(clk, select), one gate per (clk, select); the design holds
    # where the mux held, and the simulator, which reads no clock, must
    # refuse it rather than toggle
    netlist, _ = oracle_w8
    driver = {c.nets[-1]: c for c in netlist.cells}
    gates: dict[tuple[str, str], str] = {}
    cells = []
    for c in netlist.cells:
        mux = driver.get(c.nets[0]) if c.kind == "DFF" else None
        if mux is not None and mux.kind == "MUX2" and mux.nets[0] == c.nets[-1]:
            key = (c.nets[1], mux.nets[2])
            if key not in gates:
                gates[key] = f"gclk{len(gates)}"
                cells.append(Cell("AND2", f"cg{len(gates)}",
                                  {"a": key[0], "b": key[1], "y": gates[key]}))
            c = Cell("DFF", c.name, {**c.pins, "d": mux.nets[1],
                                     "clk": gates[key]})
        cells.append(c)
    gated = replace(netlist, nets=[*netlist.nets, *gates.values()],
                    cells=cells)
    assert gates
    gated_ffs = {c.name for c in gated.flip_flops()
                 if c.nets[1] in gates.values()}
    with pytest.raises(SimulationError, match="is clocked by net 'gclk") as e:
        simulate(gated, _stim(gated, 2), 2)
    assert str(e.value).split("'")[1] in gated_ffs
    simulate(netlist, _stim(netlist, 2), 2)


def test_stimulus_file_round_trip():
    vectors = [{"a": 1, "b": 0}, {"a": 0, "b": 1}]
    assert parse_stimulus(write_stimulus(vectors)) == vectors
    assert parse_stimulus("# comment\na=1 b=0\n\na=0 b=1\n") == vectors
    # a blank line is no cycle: read back, every later cycle would move up
    with pytest.raises(ValueError, match="cycle 1 sets no port"):
        write_stimulus([{"a": 1}, {}, {"a": 0}])
    # each value is written as the bit it equals; one that equals no bit
    # (a multi-lane mask, a string) would not read back
    assert parse_stimulus(write_stimulus([{"a": True, "b": False}])) == [
        {"a": 1, "b": 0}]
    for value in (5, 2, "1"):
        with pytest.raises(ValueError,
                           match=f"^cycle 1: port 'b' must be 0 or 1, got {value!r}$"):
            write_stimulus([{"a": 1}, {"a": 0, "b": value}])


def test_stimulus_parse_errors():
    with pytest.raises(StimulusError):
        parse_stimulus("a=2\n")
    with pytest.raises(StimulusError):
        parse_stimulus("nonsense\n")
    with pytest.raises(StimulusError, match="^line 2: port 'a' given twice$"):
        parse_stimulus("a=0\na=1 b=0 a=0\n")


def test_trace_dump():
    n = parse_netlist(TOGGLE)
    tr = simulate(n, _stim(n, 2), 2)
    lines = dump_trace(tr, ["q"]).splitlines()
    assert lines[0] == "cycle,q,leak,power_uW"
    assert lines[1] == "0,0,,0.0"
    assert lines[2] == "1,1,,0.0"


def test_trace_dump_header_names_the_given_ports():
    # no output ports: three fields in the header as in every row
    n = parse_netlist(TOGGLE.replace("output q", "net q"))
    assert dump_trace(simulate(n, _stim(n, 1), 1), []) == (
        "cycle,leak,power_uW\n0,,0.0\n")
    # no cycles: the header still names the outputs
    n = parse_netlist(TOGGLE)
    assert dump_trace(simulate(n, [], 0), ["q"]) == "cycle,q,leak,power_uW\n"


def test_unknown_cell_kind_rejected_without_validation():
    # the cell checks its kind when it is made, before any netlist holds it
    with pytest.raises(UnknownCellKindError, match="'u1'"):
        Cell("FOO", "u1", {"a": "a", "y": "y"})


@pytest.mark.parametrize("pins", [{"y": "y"}, {"a": "ghost", "y": "y"}])
def test_unbound_or_undeclared_input_rejected_without_validation(pins):
    if "a" not in pins:
        # an unbound pin: the cell itself cannot be made
        with pytest.raises(ArityMismatchError, match="'u1'"):
            Cell("BUF", "u1", pins)
        return
    # an undeclared net: the netlist cannot be made, so nothing simulates it
    with pytest.raises(DeclarationError, match="'u1' uses undeclared net 'ghost'"):
        Netlist(name="m", ports=[Port("a", "in"), Port("y", "out")],
                cells=[Cell("BUF", "u1", pins)])


def test_checked_simulate_rejects_an_invalid_netlist():
    # a combinational cycle, the one fault validate finds: the check
    # raises the index's error, which the plan raises on its own without it
    n = parse_netlist(TOGGLE.replace("cell INV i1 a=q y=nq",
                                     "cell INV i1 a=nq y=nq"))
    for check in (True, False):
        with pytest.raises(CombinationalCycleError) as e:
            simulate(n, _stim(n, 1), 1, check=check)
        assert str(e.value) == "combinational-cycle: i1"


def test_unknown_watch_net_rejected_before_first_cycle():
    n = parse_netlist(TOGGLE)
    # the stimulus would fail in cycle 0, so the watch check comes first
    with pytest.raises(SimulationError, match="watch names unknown net 'nope'"):
        simulate(n, [{}], 1, watch=["nope"])


@pytest.mark.parametrize("batch", [0, -1])
def test_batch_below_one_lane_rejected(batch):
    # no lanes would read every value as 0, and a negative width would
    # fail in the lane mask's shift
    n = parse_netlist(TOGGLE)
    with pytest.raises(SimulationError,
                       match=f"batch must be at least 1 lane, got {batch}"):
        simulate(n, _stim(n, 1), 1, batch=batch)


def _reference(netlist, stimulus, cycles, watch=(), init=None, batch=1):
    """Test-only definition of ``simulate``: each cell of the index's
    levels, in order, evaluated on its own by ``eval`` of its CELL_KINDS
    expression over a net-name dict."""
    mask = (1 << batch) - 1
    order = [c for level in index_netlist(netlist).levels for c in level]
    ffs = netlist.flip_flops()
    state = {c.name: 0 for c in ffs}
    for name, val in (init or {}).items():
        state[name] = val & mask
    probe = _island_controls(netlist.cells)
    values = dict.fromkeys(netlist.all_nets(), 0)
    carried = {}
    trace = SimTrace(batch, [], [], [])
    for cycle in range(cycles):
        for c in ffs:
            values[c.pins["q"]] = state[c.name]
        carried.update((p, bits & mask) for p, bits in stimulus[cycle].items())
        values.update(carried)
        for c in order:
            spec = CELL_KINDS[c.kind]
            env = {p: values[c.pins[p]] for p in spec.inputs}
            env["m"] = mask
            values[c.pins[spec.output]] = eval(spec.expr, {}, env)
        trace.outputs.append({p: values[p] for p in netlist.output_ports()})
        trace.watches.append({n: values[n] for n in watch})
        trace.island_raw.append(
            None if probe is None else tuple(values[n] for n in probe))
        for c in ffs:
            d = values[c.pins["d"]]
            if "rst" in c.pins:
                d &= ~values[c.pins["rst"]] & mask
            state[c.name] = d
    return trace


COMB_KINDS = sorted(k for k, spec in CELL_KINDS.items() if spec.expr is not None)


def _random_design(rng):
    """Acyclic netlist with every combinational kind, island-tagged cells
    among them, flip-flops with and without rst (whose d may read any net,
    so state feeds back), half the time MUX2 selects and rst pins drawn
    from a shared pool of at most two nets, and most of the time an
    oscillator island, listed first, whose enable and leak nets are random
    nets. Every netlist it builds round-trips through its text."""
    inputs = [f"i{j}" for j in range(rng.randint(1, 4))]
    qs = [f"q{j}" for j in range(rng.randint(0, 6))]
    ports = [Port(p, "in") for p in ["clk"] + inputs]
    nets = list(qs)
    cells = []
    pool = inputs + qs
    # half the time every MUX2 select and rst pin reads one of at most two
    # nets, so that cells of one level share their controls
    controls = (rng.sample(pool, min(2, len(pool))) if rng.random() < 0.5
                else None)
    kinds = COMB_KINDS + [rng.choice(COMB_KINDS) for _ in range(rng.randint(0, 30))]
    rng.shuffle(kinds)
    for j, kind in enumerate(kinds):
        pins = {p: rng.choice(controls if controls and kind == "MUX2"
                              and p == "s" else pool)
                for p in CELL_KINDS[kind].inputs}
        pins["y"] = f"w{j}"
        tags = frozenset([ANALOG_ISLAND_TAG] if rng.random() < 0.1 else [])
        nets.append(f"w{j}")
        cells.append(Cell(kind, f"g{j}", pins, tags))
        pool.append(f"w{j}")
    for j, q in enumerate(qs):
        pins = {"d": rng.choice(pool), "clk": "clk", "q": q}
        if rng.random() < 0.5:
            pins["rst"] = rng.choice(controls or pool)
        cells.append(Cell("DFF", f"f{j}", pins))
    if rng.random() < 0.7:
        ro = parse_netlist(RO_ISLAND)
        rename = {"en": rng.choice(pool), "l0": rng.choice(pool),
                  "l1": rng.choice(pool)}
        island = [Cell(c.kind, "ro_" + c.name,
                       {p: rename.get(net, "ro_" + net) for p, net in c.pins.items()},
                       c.tags) for c in ro.cells if c.tags]
        nets += ["ro_" + net for net in ro.nets]
        cells[:0] = island
    for j in range(rng.randint(1, 3)):
        ports.append(Port(f"o{j}", "out"))
        cells.append(Cell("BUF", f"ob{j}", {"a": rng.choice(pool), "y": f"o{j}"}))
    n = Netlist("rnd", ports=ports, nets=nets, cells=cells)
    assert parse_netlist(write_netlist(n)) == n
    return n


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_compiled_simulator_matches_reference(seed):
    rng = random.Random(seed)
    n = _random_design(rng)
    stim, cycles, kwargs = _random_call(rng, n, rng.choice([1, 1, 2, 5, 64]))
    assert (simulate(n, stim, cycles, **kwargs)
            == _reference(n, stim, cycles, **kwargs))


def _random_call(rng, n, batch):
    """(stimulus, cycles, keyword arguments) of one random simulate call
    on ``n`` at ``batch`` lanes: 1 to 6 cycles, some flip-flops preset
    and up to 6 nets watched."""
    cycles = rng.randint(1, 6)
    # values wider than the lanes check the masking
    stim = [{p: rng.getrandbits(batch + 2) for p in n.input_ports()}]
    stim += [{p: rng.getrandbits(batch + 2) for p in n.input_ports()
              if rng.random() < 0.5} for _ in range(cycles - 1)]
    init = {c.name: rng.getrandbits(batch)
            for c in n.flip_flops() if rng.random() < 0.5}
    watch = rng.sample(n.all_nets(), min(6, len(n.all_nets())))
    return stim, cycles, dict(watch=watch, init=init, batch=batch)


def _compare_every_net(netlist, batch, cycles, seed):
    rng = random.Random(seed)
    stim = [{p: rng.getrandbits(batch) for p in netlist.input_ports()}
            for _ in range(cycles)]
    init = {c.name: rng.getrandbits(batch) for c in netlist.flip_flops()}
    # every net watched, so every group's every slot is compared
    kwargs = dict(watch=netlist.all_nets(), init=init, batch=batch)
    assert (simulate(netlist, stim, cycles, **kwargs)
            == _reference(netlist, stim, cycles, **kwargs))


def test_compiled_simulator_matches_reference_across_levels(oracle_w8):
    netlist, _ = oracle_w8
    levels = index_netlist(netlist).levels
    assert len(levels) >= 10
    assert max(len({c.kind for c in level}) for level in levels) >= 3
    _compare_every_net(netlist, 3, 4, 5)


# one-cell groups of a one-input and of a two-input kind (a one-slot
# gather), a TIE0 and a two-cell TIE1 group, and groups that read both
# constants, a port and a flip-flop
SMALL_GROUPS = """\
module g
input clk
input a
input b
output y
output z
net t0
net t1
net t2
net n1
net n2
net n3
net q
cell TIE0 c0 y=t0
cell TIE1 c1 y=t1
cell TIE1 c2 y=t2
cell XOR2 x1 a=a b=t1 y=n1
cell AND2 g1 a=b b=t2 y=n2
cell AND2 g2 a=q b=t1 y=n3
cell INV i1 a=n1 y=y
cell MUX2 m1 a=n2 b=n3 s=t0 y=z
cell DFF f1 d=y clk=clk q=q
endmodule
"""


@pytest.mark.parametrize("batch", [1, 5])
def test_compiled_simulator_matches_reference_on_small_groups(batch):
    netlist = parse_netlist(SMALL_GROUPS)
    # (level, kind) -> cells: the groups the simulator compiles
    groups = Counter((depth, c.kind) for depth, level
                     in enumerate(index_netlist(netlist).levels) for c in level)
    assert groups == {
        (0, "TIE0"): 1, (0, "TIE1"): 2, (1, "XOR2"): 1, (1, "AND2"): 2,
        (2, "INV"): 1, (2, "MUX2"): 1}
    _compare_every_net(netlist, batch, 4, batch)


def _io_design(ffs, outputs):
    """``ffs`` flip-flops in a ring through XOR2s from port a, the first
    one cleared by port r, and ``outputs`` output ports, each an INV of a
    flip-flop output (of a without one)."""
    qs = [f"q{j}" for j in range(ffs)]
    cells = []
    for j, q in enumerate(qs):
        cells.append(Cell("XOR2", f"x{j}", {"a": qs[j - 1] if j else "a",
                                            "b": q, "y": f"d{j}"}))
        rst = {"rst": "r"} if j == 0 else {}
        cells.append(Cell("DFF", f"f{j}", {"d": f"d{j}", "clk": "clk",
                                           **rst, "q": q}))
    for k in range(outputs):
        cells.append(Cell("INV", f"i{k}", {"a": qs[k % ffs] if ffs else "a",
                                           "y": f"o{k}"}))
    return Netlist("io", ports=[Port(p, "in") for p in ("clk", "a", "r")]
                   + [Port(f"o{k}", "out") for k in range(outputs)],
                   nets=qs + [f"d{j}" for j in range(ffs)], cells=cells)


@pytest.mark.parametrize("watches", [0, 1, 2])
@pytest.mark.parametrize("outputs", [0, 1, 2])
@pytest.mark.parametrize("ffs", [0, 1, 2])
def test_plan_io_edge_cases_match_reference(ffs, outputs, watches):
    # the state slice and the d, output and watch getters at 0, 1 and 2
    # slots each: a one-slot itemgetter returns no tuple, and one of no
    # slots cannot be made
    netlist = _io_design(ffs, outputs)
    rng = random.Random(ffs * 9 + outputs * 3 + watches)
    watch = rng.sample(netlist.all_nets(), watches)
    for batch in (1, 5):
        stim = [{p: rng.getrandbits(batch) for p in netlist.input_ports()}
                for _ in range(6)]
        init = {c.name: rng.getrandbits(batch) for c in netlist.flip_flops()}
        kwargs = dict(watch=watch, init=init, batch=batch)
        trace = simulate(netlist, stim, 6, **kwargs)
        assert trace == _reference(netlist, stim, 6, **kwargs)
        assert all(len(o) == outputs for o in trace.outputs)
        assert all(len(w) == watches for w in trace.watches)


# MUX2s that share a select within a level: level 0 has two on port s0,
# two on port s1 and one on flip-flop output q4; level 1 has two on s1.
# Flip-flops f0 and f1 are cleared by port r0, f2 and f3 by r1, and f4
# and f5 by nothing.
SHARED_CONTROLS = """\
module sc
input clk
input a
input b
input c
input s0
input s1
input r0
input r1
output o
net y0
net y1
net y2
net y3
net y4
net y5
net y6
net q0
net q1
net q2
net q3
net q4
net q5
cell MUX2 m0 a=a b=b s=s0 y=y0
cell MUX2 m1 a=c b=q0 s=s0 y=y1
cell MUX2 m2 a=q1 b=a s=s1 y=y2
cell MUX2 m3 a=b b=q2 s=s1 y=y3
cell MUX2 m4 a=q3 b=q5 s=q4 y=y4
cell MUX2 m5 a=y0 b=y1 s=s1 y=y5
cell MUX2 m6 a=y3 b=y2 s=s1 y=y6
cell DFF f0 d=y5 clk=clk rst=r0 q=q0
cell DFF f1 d=y6 clk=clk rst=r0 q=q1
cell DFF f2 d=y0 clk=clk rst=r1 q=q2
cell DFF f3 d=y4 clk=clk rst=r1 q=q3
cell DFF f4 d=y1 clk=clk q=q4
cell DFF f5 d=y2 clk=clk q=q5
cell XOR2 x0 a=y5 b=y6 y=o
endmodule
"""


@pytest.mark.parametrize("batch", [1, 5, 64])
def test_shared_selects_and_resets_match_reference(batch):
    netlist = parse_netlist(SHARED_CONTROLS)
    # the selects of each level's MUX2s
    selects = [sorted(c.nets[2] for c in level if c.kind == "MUX2")
               for level in index_netlist(netlist).levels]
    assert selects == [["q4", "s0", "s0", "s1", "s1"], ["s1", "s1"], []]
    # one cycle per combination of every select and reset port at 0, at
    # every lane and, beyond batch 1, at mixed lanes; the data ports and
    # the initial state random
    rng = random.Random(batch)
    m = (1 << batch) - 1
    controls = ("s0", "s1", "r0", "r1")
    values = [0, m] + ([rng.randrange(1, m)] if batch > 1 else [])
    stim = [{"clk": 0, **dict(zip(controls, combo)),
             **{p: rng.getrandbits(batch) for p in ("a", "b", "c")}}
            for combo in product(values, repeat=len(controls))]
    init = {c.name: rng.getrandbits(batch) for c in netlist.flip_flops()}
    kwargs = dict(watch=netlist.all_nets(), init=init, batch=batch)
    assert (simulate(netlist, stim, len(stim), **kwargs)
            == _reference(netlist, stim, len(stim), **kwargs))


def test_a_warm_simulator_compiles_nothing(monkeypatch):
    # a run of one cell of every combinational kind builds every step
    # function; a run of another netlist then neither compiles nor
    # executes source
    ports = [f"p{j}" for j in range(6)]
    every_kind = Netlist("k", ports=[Port(p, "in") for p in ports]
                         + [Port(f"y_{k}", "out") for k in COMB_KINDS],
                         cells=[Cell(k, f"u_{k}", {
                             **dict(zip(CELL_KINDS[k].inputs, ports)),
                             "y": f"y_{k}"}) for k in COMB_KINDS])
    simulate(every_kind, [dict.fromkeys(ports, 1)], 1)
    netlist = parse_netlist(SHARED_CONTROLS)
    rng = random.Random(3)
    stim = [{p: rng.getrandbits(5) for p in netlist.input_ports()}
            for _ in range(8)]
    want = _reference(netlist, stim, 8, watch=netlist.all_nets(), batch=5)

    def refuse(*args, **kwargs):
        raise AssertionError("simulate compiled or executed source")

    # undone before the test's outcome is reported, which compiles
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "compile", refuse)
        patch.setattr(builtins, "exec", refuse)
        trace = simulate(netlist, stim, 8, watch=netlist.all_nets(), batch=5)
    assert trace == want


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_a_kept_plan_serves_every_later_call(seed):
    # calls on one netlist, one per batch in shuffled order, each with its
    # own stimulus, cycle count, init and watch list, all run the plan the
    # first one built; each trace equals that of a fresh parse of the same
    # text, whose plan is new, and the reference's
    rng = random.Random(seed)
    n = _random_design(rng)
    text = write_netlist(n)
    batches = [1, 2, 5, 64]
    rng.shuffle(batches)
    plans = set()
    for batch in batches:
        stim, cycles, kwargs = _random_call(rng, n, batch)
        trace = simulate(n, stim, cycles, **kwargs)
        plans.add(id(n.index.plan))
        assert trace == simulate(parse_netlist(text), stim, cycles, **kwargs)
        assert trace == _reference(n, stim, cycles, **kwargs)
    assert len(plans) == 1


def test_a_plan_is_built_once_per_netlist(monkeypatch, oracle_w8):
    # a victim parsed afresh (no plan yet) and its trojaned copy, which
    # shares the victim's cells but is another netlist with its own index
    from kecscope import sim
    from kecscope.trojan import HthSpec, insert_hth
    from kecscope.truth import RepqcResult
    victim = parse_netlist(write_netlist(oracle_w8[0]))
    taps = [c.name for c in victim.flip_flops()[:16]]
    trojaned, _ = insert_hth(victim, RepqcResult(frozenset(), taps, None,
                                                 "grouped", 0),
                             HthSpec(t=16, l=16, trigger=0xBEEF))
    built = []
    real = sim._Compiled

    def counted(netlist, *args):
        built.append(netlist)
        return real(netlist, *args)

    monkeypatch.setattr(sim, "_Compiled", counted)
    for cycles in (1, 2, 3):
        traces = [simulate(n, _stim(n, cycles), cycles)
                  for n in (victim, trojaned)]
        # the trojan only adds to the victim, so the outputs stay its own
        assert traces[0].outputs == traces[1].outputs
    assert [id(n) for n in built] == [id(victim), id(trojaned)]
    assert victim.index is not trojaned.index
    assert len(victim.index.plan.slot) < len(trojaned.index.plan.slot)


# a call's own argument at fault -> (stimulus, cycles, keyword arguments
# over the good call's, what it raises)
FAULTY_CALLS = {
    "watch": (None, 4, {"watch": ["y0", "nope"]},
              "watch names unknown net 'nope'"),
    "init": (None, 4, {"init": {"f0": 1, "nope": 1}},
             "init names unknown flip-flop 'nope'"),
    "port": ([{"nope": 1}], 1, {}, "cycle 0: unknown input port 'nope'"),
}


@pytest.mark.parametrize("bad", sorted(FAULTY_CALLS))
def test_a_call_that_raises_leaves_the_next_one_correct(bad):
    # raised once the plan was read (or built, on the first call): the
    # kept plan serves the next call as if nothing had failed
    netlist = parse_netlist(SHARED_CONTROLS)
    rng = random.Random(7)
    stim = [{p: rng.getrandbits(5) for p in netlist.input_ports()}
            for _ in range(4)]
    kwargs = dict(watch=netlist.all_nets(), batch=5,
                  init={c.name: rng.getrandbits(5)
                        for c in netlist.flip_flops()})
    want = _reference(netlist, stim, 4, **kwargs)
    fault_stim, cycles, fault, message = FAULTY_CALLS[bad]
    for _ in range(2):
        with pytest.raises(SimulationError) as e:
            simulate(netlist, fault_stim or stim, cycles, **{**kwargs, **fault})
        assert str(e.value) == message
        assert simulate(netlist, stim, 4, **kwargs) == want


def test_a_refused_plan_is_not_kept():
    # a gated clock fails the build itself: no plan is kept, so every
    # call builds it again and raises the same error, and another
    # netlist's plan is untouched
    toggle = parse_netlist(TOGGLE)
    want = simulate(toggle, _stim(toggle, 3), 3)
    gated = parse_netlist(GATED)
    for _ in range(2):
        with pytest.raises(SimulationError, match="is clocked by net 'gclk'"):
            simulate(gated, _stim(gated, 3), 3)
        assert gated.index.plan is None
        assert simulate(toggle, _stim(toggle, 3), 3) == want


def test_an_island_flip_flop_takes_one_slot():
    # a flip-flop tagged analog_island is both a flip-flop and an island
    # cell; its output has the one slot of the state
    netlist = parse_netlist(RO_ISLAND.replace(
        "cell DFF f1 d=en clk=clk q=q",
        "cell DFF f1 d=en clk=clk q=q tag=analog_island"))
    assert netlist.flip_flops()[0].tags
    stim = [{"clk": 0, "en": e, "l0": e, "l1": 1 - e} for e in (1, 0, 1, 1)]
    kwargs = dict(watch=netlist.all_nets())
    trace = simulate(netlist, stim, 4, **kwargs)
    assert trace == _reference(netlist, stim, 4, **kwargs)
    assert [o["q"] for o in trace.outputs] == [0, 1, 0, 1]


# The structural stealth verdict (extends) against the simulated one
# (equivalence_check), on the random designs above and edits of them.

def _random_stimulus(rng, netlist):
    cycles = rng.randint(1, 6)
    return [{p: rng.getrandbits(1) for p in netlist.input_ports()}
            for _ in range(cycles)], cycles


def _additive_edit(rng, n):
    """n with nets appended and cells inserted anywhere in the cell list,
    each cell reading n's nets or earlier new ones; flip-flops and island
    cells among them, the ports unchanged."""
    pool = n.all_nets()
    nets, cells = list(n.nets), list(n.cells)
    for j in range(len(cells), len(cells) + rng.randint(1, 12)):
        kind = rng.choice(COMB_KINDS + ["DFF"])
        spec = CELL_KINDS[kind]
        pins = {p: rng.choice(pool) for p in spec.inputs}
        if kind == "DFF":
            pins["clk"] = "clk"
        pins[spec.output] = f"x{j}"
        tags = frozenset([ANALOG_ISLAND_TAG] if rng.random() < 0.1 else [])
        nets.append(f"x{j}")
        cells.insert(rng.randint(0, len(cells)), Cell(kind, f"e{j}", pins, tags))
        pool.append(f"x{j}")
    return replace(n, nets=nets, cells=cells)


def _additive(rng, n):
    return _additive_edit(rng, n), n


def _replaced(n, old, new):
    return replace(n, cells=[new if c is old else c for c in n.cells])


def _other_kind(rng, n):
    cell = rng.choice([c for c in n.cells if c.kind in ("AND2", "OR2", "XOR2")])
    kind = rng.choice([k for k in ("AND2", "OR2", "XOR2", "NAND2") if k != cell.kind])
    return _replaced(n, cell, Cell(kind, cell.name, cell.pins, cell.tags)), n


def _other_pin(rng, n):
    cell = rng.choice([c for c in n.cells if len(c.nets) > 1])
    pin, net = rng.choice(list(cell.pins.items())[:-1])
    # an input port never closes a cycle
    new = rng.choice([p for p in n.input_ports() if p != net])
    return _replaced(n, cell, Cell(cell.kind, cell.name,
                                   {**cell.pins, pin: new}, cell.tags)), n


def _other_tag(rng, n):
    cell = rng.choice([c for c in n.cells if not c.tags])
    return _replaced(n, cell, Cell(cell.kind, cell.name, cell.pins,
                                   frozenset([ANALOG_ISLAND_TAG]))), n


def _removed_cell(rng, n):
    # the baseline has a cell the netlist lacks
    extra = Cell("BUF", "extra", {"a": rng.choice(n.all_nets()), "y": "xb"})
    return n, replace(n, nets=[*n.nets, "xb"], cells=[*n.cells, extra])


def _redriven_net(rng, n):
    # a baseline net driven by another cell, the same function under
    # another name
    cell = rng.choice(n.cells)
    return _replaced(n, cell, Cell(cell.kind, "r_" + cell.name, cell.pins,
                                   cell.tags)), n


def _added_port(rng, n):
    if rng.random() < 0.5:
        return replace(n, ports=[*n.ports, Port("extra", "in")]), n
    out = Cell("BUF", "extra_b", {"a": rng.choice(n.all_nets()), "y": "extra"})
    return replace(n, ports=[*n.ports, Port("extra", "out")],
                   cells=[*n.cells, out]), n


def _turned_port(rng, n):
    # an input port turned output, driven by a new constant
    port = rng.choice([p for p in n.ports if p.direction == "in"])
    ports = [Port(p.name, "out") if p is port else p for p in n.ports]
    tie = Cell("TIE0", "extra_t", {"y": port.name})
    return replace(n, ports=ports, cells=[*n.cells, tie]), n


NON_ADDITIVE = {f.__name__.lstrip("_"): f for f in (
    _other_kind, _other_pin, _other_tag, _removed_cell, _redriven_net,
    _added_port, _turned_port)}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_an_additive_edit_extends_and_keeps_the_outputs(seed):
    rng = random.Random(seed)
    n = _random_design(rng)
    edited = _additive_edit(rng, n)
    assert validate(edited) == []
    assert extends(edited, n) and extends(n, n)
    assert not extends(n, edited)
    # the text round trip the CLI reads both designs through
    assert extends(parse_netlist(write_netlist(edited)),
                   parse_netlist(write_netlist(n)))
    stim, cycles = _random_stimulus(rng, n)
    assert equivalence_check(edited, n, stim, cycles)


def test_extends_builds_no_index(monkeypatch):
    # the verdict reads a driver map that it builds from the cells alone;
    # neither design is indexed
    from kecscope import netlist as netlist_module

    def no_index(n):
        raise AssertionError("extends built an index")

    rng = random.Random(7)
    n = _random_design(rng)
    edited = _additive_edit(rng, n)
    text, edited_text = write_netlist(n), write_netlist(edited)
    monkeypatch.setattr(netlist_module, "index_netlist", no_index)
    assert extends(parse_netlist(edited_text), parse_netlist(text))
    assert not extends(parse_netlist(text), parse_netlist(edited_text))


@pytest.mark.parametrize("edit", sorted(NON_ADDITIVE))
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_a_non_additive_edit_does_not_extend(edit, seed):
    rng = random.Random(seed)
    netlist, baseline = NON_ADDITIVE[edit](rng, _random_design(rng))
    assert validate(netlist) == []
    assert not extends(netlist, baseline)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_a_baseline_without_a_driver_cannot_be_made(seed):
    # so extends needs no count of the baseline's drivers
    rng = random.Random(seed)
    n = _random_design(rng)
    cell = rng.choice(n.cells)
    with pytest.raises(DeclarationError,
                       match=f"net '{cell.nets[-1]}' driven by nothing"):
        replace(n, cells=[c for c in n.cells if c is not cell])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_extends_implies_the_simulated_verdict(seed):
    rng = random.Random(seed)
    edit = rng.choice([_additive, *NON_ADDITIVE.values()])
    netlist, baseline = edit(rng, _random_design(rng))
    if rng.random() < 0.5:
        netlist = _additive_edit(rng, netlist)
    if extends(netlist, baseline):
        assert validate(baseline) == []
        stim, cycles = _random_stimulus(rng, baseline)
        assert equivalence_check(netlist, baseline, stim, cycles)
