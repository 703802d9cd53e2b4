import pytest

from kecscope.netlist import CELL_KINDS, Cell, Netlist, Port, parse_netlist
from kecscope.sim import (LEAK_POWER_UW, PortMismatchError, StimulusError,
                          dump_trace, equivalence_check, parse_stimulus,
                          simulate, write_stimulus)

TOGGLE = """\
module t
input clk
output q
net nq
cell DFF f1 d=nq clk=clk q=q
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


def test_toggle_flip_flop():
    n = parse_netlist(TOGGLE)
    tr = simulate(n, _stim(n, 6), 6)
    assert [o["q"] for o in tr.outputs] == [0, 1, 0, 1, 0, 1]


def test_determinism():
    n = parse_netlist(TOGGLE)
    a = simulate(n, _stim(n, 8), 8)
    b = simulate(n, _stim(n, 8), 8)
    assert a.outputs == b.outputs


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


def test_unknown_port_rejected():
    n = parse_netlist(TOGGLE)
    with pytest.raises(StimulusError):
        simulate(n, [{"clk": 0, "bogus": 1}], 1)


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


def test_power_lookup_table():
    assert LEAK_POWER_UW == {0: 32.3, 1: 34.2, 2: 36.9, 3: 38.9}


def test_oscillator_frequency_metadata():
    from kecscope.sim import RO_FREQ_MHZ
    assert RO_FREQ_MHZ == {0: 639, 1: 671, 2: 732, 3: 767}


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


def test_stimulus_file_round_trip():
    vectors = [{"a": 1, "b": 0}, {"a": 0, "b": 1}]
    assert parse_stimulus(write_stimulus(vectors)) == vectors
    assert parse_stimulus("# comment\na=1 b=0\n\na=0 b=1\n") == vectors


def test_stimulus_parse_errors():
    with pytest.raises(StimulusError):
        parse_stimulus("a=2\n")
    with pytest.raises(StimulusError):
        parse_stimulus("nonsense\n")


def test_trace_dump():
    n = parse_netlist(TOGGLE)
    tr = simulate(n, _stim(n, 2), 2)
    lines = dump_trace(tr).splitlines()
    assert lines[0] == "cycle,q,leak,power_uW"
    assert lines[1] == "0,0,,0.0"
    assert lines[2] == "1,1,,0.0"
