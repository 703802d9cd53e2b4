import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecscope.depgraph import CombinationalCycleError, extract_dependencies
from kecscope.netlist import (ANALOG_ISLAND_TAG, ArityMismatchError, Cell,
                              MultiplyDrivenNetError, Netlist, NetlistSyntaxError,
                              Port, UndrivenNetError, UnknownCellKindError,
                              anonymize, index_netlist, parse_netlist, validate,
                              write_netlist)
from kecscope.sim import SimulationError, simulate

INV_DFF = """\
module tiny
input a
input clk
output q
net n1
cell INV i1 a=a y=n1
cell DFF f1 d=n1 clk=clk q=q
endmodule
"""


def test_empty_module_with_ports():
    n = parse_netlist("module m\ninput a\noutput b\nendmodule\n")
    assert n.cell_count() == 0
    assert len(n.ports) == 2


def test_empty_module_round_trip():
    text = write_netlist(Netlist(name="m"))
    assert text == "module m\nendmodule\n"
    assert parse_netlist(text) == Netlist(name="m")


def test_two_cell_fixture():
    n = parse_netlist(INV_DFF)
    kinds = sorted(c.kind for c in n.cells)
    assert kinds == ["DFF", "INV"]
    assert len(n.all_nets()) == 4
    assert parse_netlist(write_netlist(n)) == n


def test_arity_mismatch_extra_pin():
    bad = INV_DFF.replace("cell INV i1 a=a y=n1", "cell INV i1 a=a b=clk y=n1")
    with pytest.raises(ArityMismatchError):
        parse_netlist(bad)


def test_arity_mismatch_missing_pin():
    bad = INV_DFF.replace("cell DFF f1 d=n1 clk=clk q=q", "cell DFF f1 d=n1 q=q")
    with pytest.raises(ArityMismatchError):
        parse_netlist(bad)


def test_unknown_cell_kind():
    with pytest.raises(UnknownCellKindError):
        parse_netlist(INV_DFF.replace("cell INV", "cell NOT"))


def test_undriven_net():
    bad = INV_DFF.replace("cell INV i1 a=a y=n1\n", "")
    with pytest.raises(UndrivenNetError):
        parse_netlist(bad)


def test_multiply_driven_net():
    bad = INV_DFF.replace("endmodule", "cell BUF b1 a=a y=n1\nendmodule")
    with pytest.raises(MultiplyDrivenNetError):
        parse_netlist(bad)


def test_syntax_error_has_line():
    with pytest.raises(NetlistSyntaxError) as e:
        parse_netlist("module m\nbogus keyword here\nendmodule\n")
    assert e.value.line == 2


def test_comments_and_blank_lines():
    text = "# header\nmodule m\n\ninput a # trailing\noutput b\n" \
           "cell BUF b1 a=a y=b\nendmodule\n"
    n = parse_netlist(text)
    assert n.cell_count() == 1


def test_dff_optional_rst_round_trips():
    text = INV_DFF.replace("input clk\n", "input clk\ninput rst\n").replace(
        "cell DFF f1 d=n1 clk=clk q=q", "cell DFF f1 d=n1 clk=clk rst=rst q=q")
    n = parse_netlist(text)
    assert parse_netlist(write_netlist(n)) == n


def test_tags_preserved():
    text = INV_DFF.replace("cell INV i1 a=a y=n1",
                           "cell INV i1 a=a y=n1 tag=analog_island")
    n = parse_netlist(text)
    again = parse_netlist(write_netlist(n))
    assert again == n
    assert "analog_island" in again.cells[0].tags


def test_validate_combinational_cycle():
    text = ("module m\ninput clk\nnet a\nnet b\n"
            "cell INV i1 a=b y=a\ncell INV i2 a=a y=b\nendmodule\n")
    n = parse_netlist(text)
    kinds = [v.kind for v in validate(n)]
    assert "combinational-cycle" in kinds


def test_validate_cycle_exempt_when_tagged():
    text = ("module m\ninput clk\nnet a\nnet b\n"
            "cell INV i1 a=b y=a tag=analog_island\n"
            "cell INV i2 a=a y=b tag=analog_island\nendmodule\n")
    assert validate(parse_netlist(text)) == []


def test_validate_reports_dangling_output():
    n = parse_netlist("module m\ninput a\noutput b\nendmodule\n")
    assert [v.kind for v in validate(n)] == ["undriven-net"]


def test_validate_missing_output_pin_is_arity():
    n = parse_netlist(INV_DFF)
    n.cells.append(Cell("BUF", "b1", {"a": "a"}))
    assert [v.kind for v in validate(n)] == ["arity"]


# one island rule for validate, extract_dependencies and simulate: island
# outputs cut every path, so a loop is a cycle only without an island cell
ISLAND_RULE_CASES = {
    "buf_reads_oscillator": (True, """\
module m
input clk
input en
net fb
net t
net q
cell NAND2 ron a=fb b=en y=fb tag=analog_island
cell BUF tap a=fb y=t
cell DFF f1 d=t clk=clk q=q
endmodule
"""),
    "loop_with_one_tagged_cell": (True, """\
module m
input clk
net a
net b
net q
cell INV i1 a=b y=a tag=analog_island
cell INV i2 a=a y=b
cell DFF f1 d=b clk=clk q=q
endmodule
"""),
    "untagged_loop": (False, """\
module m
input clk
net a
net b
net q
cell INV i1 a=b y=a
cell INV i2 a=a y=b
cell DFF f1 d=b clk=clk q=q
endmodule
"""),
}


@pytest.mark.parametrize("case", sorted(ISLAND_RULE_CASES))
def test_island_rule_agrees(case):
    accepted, text = ISLAND_RULE_CASES[case]
    n = parse_netlist(text)
    stim = [{p: 0 for p in n.input_ports()}]
    if accepted:
        assert validate(n) == []
        extract_dependencies(n)
        simulate(n, stim, 1, check=False)
    else:
        assert [v.kind for v in validate(n)] == ["combinational-cycle"]
        with pytest.raises(CombinationalCycleError):
            extract_dependencies(n)
        with pytest.raises(SimulationError):
            simulate(n, stim, 1, check=False)


def _random_netlist(rng):
    b_nets = [f"n{i}" for i in range(rng.randint(1, 8))]
    n = Netlist(name="rnd")
    n.ports.append(Port("clk", "in"))
    n.ports.append(Port("pi", "in"))
    n.nets.extend(b_nets)
    driven = []
    for i, net in enumerate(b_nets):
        src = rng.choice(driven + ["pi"])
        if rng.random() < 0.4:
            n.cells.append(Cell("DFF", f"f{i}", {"d": src, "clk": "clk", "q": net}))
        elif rng.random() < 0.5:
            n.cells.append(Cell("INV", f"g{i}", {"a": src, "y": net}))
        else:
            other = rng.choice(driven + ["pi"])
            n.cells.append(Cell("XOR2", f"g{i}", {"a": src, "b": other, "y": net},
                                frozenset(["analog_island"] if rng.random() < 0.1 else [])))
        driven.append(net)
    return n


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_random_netlists(seed):
    n = _random_netlist(random.Random(seed))
    assert parse_netlist(write_netlist(n)) == n


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_index_orders_every_comb_cell_after_its_drivers(seed):
    n = _random_netlist(random.Random(seed))
    index = index_netlist(n)
    assert index.cyclic == []
    position = {c.name: i for i, c in enumerate(index.order)}
    comb = [c for c in n.cells
            if not c.is_seq() and ANALOG_ISLAND_TAG not in c.tags]
    assert len(index.order) == len(position) == len(comb)
    assert set(position) == {c.name for c in comb}
    for c in index.order:
        for _, net in c.input_pins():
            d = index.driver.get(net)
            if d is not None and d.name in position:
                assert position[d.name] < position[c.name]


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_anonymize_deterministic(seed):
    n = parse_netlist(INV_DFF)
    b1, m1 = anonymize(n, seed)
    b2, m2 = anonymize(n, seed)
    assert write_netlist(b1) == write_netlist(b2)
    assert m1 == m2


def test_anonymize_isomorphic_with_witness():
    n = parse_netlist(INV_DFF)
    blind, rename = anonymize(n, 1)
    # the rename map is an isomorphism witness: remapping the original
    # must reproduce the blind netlist cell for cell
    remapped = {(c.kind, rename[c.name],
                 tuple(sorted((p, rename[net]) for p, net in c.pins.items())))
                for c in n.cells}
    got = {(c.kind, c.name, tuple(sorted(c.pins.items()))) for c in blind.cells}
    assert remapped == got
    assert sorted(rename[x] for x in n.all_nets()) == sorted(blind.all_nets())


def test_anonymize_different_seeds_differ():
    n = parse_netlist(INV_DFF)
    b1, _ = anonymize(n, 1)
    b2, _ = anonymize(n, 2)
    assert write_netlist(b1) != write_netlist(b2)


def test_anonymize_remaps_sidecar_ids(oracle_w8):
    netlist, truth = oracle_w8
    blind, rename = anonymize(netlist, 9)
    names = {c.name for c in blind.cells}
    remapped = truth.remap(rename)
    assert all(f in names for f in remapped.all_state_ffs())
    assert all(f in names for f in remapped.all_input_ffs())
