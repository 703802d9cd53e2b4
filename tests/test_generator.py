import ast
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import kecscope
from kecscope import keccak
from kecscope.depgraph import extract_dependencies
from kecscope.generator import (Builder, GenConfig, GroundTruth,
                                generate_accelerator, generate_core,
                                state_bit_index)
from kecscope.locate import derive_bounds
from kecscope.netlist import (ArityMismatchError, UnknownCellKindError,
                              validate, write_netlist)
from kecscope.sim import simulate

from named import Named

MIN_FANIN_FLOOR = min(derive_bounds(w)[0] for w in keccak.LANE_WIDTHS)


def permute_init(netlist, truth, states, share=0, instance=0):
    """Flip-flop preset that loads the given batch of states and forces the
    permutation to run with no absorb interference."""
    w = truth.lane_width
    inst = truth.instances[instance]
    init = {}
    for x in range(5):
        for y in range(5):
            for z in range(w):
                idx = share * 25 * w + state_bit_index(x, y, z, w)
                bits = 0
                for lane, s in enumerate(states):
                    bits |= s.bit(x, y, z) << lane
                init[inst.state_ffs[idx]] = bits
    init[f"k{instance}_ctl_permute"] = (1 << len(states)) - 1
    return init


def read_state(netlist, truth, trace, cycle, lane, share=0, instance=0):
    w = truth.lane_width
    inst = truth.instances[instance]
    cells = netlist.cells_by_name()
    s = keccak.KeccakState.zero(w)
    for x in range(5):
        for y in range(5):
            for z in range(w):
                idx = share * 25 * w + state_bit_index(x, y, z, w)
                net = cells[inst.state_ffs[idx]].pins["q"]
                if (trace.watches[cycle][net] >> lane) & 1:
                    s.lanes[x + 5 * y] |= 1 << z
    return s


def run_rounds(netlist, truth, states):
    rounds = keccak.num_rounds(truth.lane_width)
    init = permute_init(netlist, truth, states)
    stim = [{p: 0 for p in netlist.input_ports()}] * (rounds + 1)
    cells = netlist.cells_by_name()
    watch = [cells[f].pins["q"] for inst in truth.instances
             for f in inst.state_ffs]
    return simulate(netlist, stim, rounds + 1, watch=watch, init=init,
                    batch=len(states))


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(w=63)
    with pytest.raises(ValueError):
        GenConfig(shares=3)
    with pytest.raises(ValueError):
        GenConfig(decoy_ffs=-1)
    with pytest.raises(ValueError):
        GenConfig(loader="dma")


def test_builder_rejects_a_duplicate_flip_flop():
    b = Builder("dup")
    d = b.port_in("d")
    b.dff("x", d)
    # a fresh q net, so only the cell name repeats
    with pytest.raises(ValueError, match="already exists"):
        b.dff("x", d, q=b.net())


def test_builder_rejects_an_unknown_cell_kind():
    b = Builder("bad")
    a = b.port_in("a")
    y = b.net()
    with pytest.raises(UnknownCellKindError, match="'u1'"):
        b.cell("FOO", "u1", a=a, y=y)
    # nothing was added, so y is still undriven
    assert b.cells == []


def test_builder_rejects_a_missing_pin():
    b = Builder("bad")
    a = b.port_in("a")
    with pytest.raises(ArityMismatchError, match=r"'u1'.*missing pins \['y'\]"):
        b.cell("BUF", "u1", a=a)
    # the rejected cell left its name free
    b.cell("BUF", "u1", a=a, y=b.net())
    assert [c.name for c in b.netlist().cells] == ["u1"]


def test_minimal_width_round_trips():
    # keccak-f[25]: the smallest permutation still generates and re-parses
    from kecscope.netlist import parse_netlist
    netlist, truth = generate_accelerator(GenConfig(w=1, seed=0))
    assert validate(netlist) == []
    assert len(truth.all_state_ffs()) == 25
    again = parse_netlist(write_netlist(netlist))
    assert again.cell_count() == netlist.cell_count()
    assert len(again.all_nets()) == len(netlist.all_nets())
    assert again == netlist


def test_deterministic_generation():
    a, _ = generate_accelerator(GenConfig(w=8, decoy_ffs=300, seed=5))
    b, _ = generate_accelerator(GenConfig(w=8, decoy_ffs=300, seed=5))
    assert write_netlist(a) == write_netlist(b)


def test_seed_changes_decoys():
    a, _ = generate_accelerator(GenConfig(w=8, decoy_ffs=300, seed=5))
    b, _ = generate_accelerator(GenConfig(w=8, decoy_ffs=300, seed=6))
    assert write_netlist(a) != write_netlist(b)


def test_oracle_counts_and_validity(oracle_w64, oracle_w64_graph):
    netlist, truth = oracle_w64
    graph = Named(oracle_w64_graph)
    assert validate(netlist) == []
    assert len(truth.all_state_ffs()) == 1600
    assert len(truth.all_input_ffs()) == 64
    assert len(truth.decoy_ffs) == 3000
    # no decoy can enter a state window: each is below every fanin floor
    assert max(map(graph.fanin, truth.decoy_ffs)) < MIN_FANIN_FLOOR
    names = {c.name for c in netlist.cells}
    assert set(truth.all_state_ffs()) <= names


def _cells_reaching_no_output(netlist):
    """The cells with no path to a primary output, walking back from the
    outputs through every cell, flip-flops included: what unused-circuit
    identification finds from structure alone."""
    driver = {c.nets[-1]: c for c in netlist.cells}
    seen = set(netlist.output_ports())
    stack = list(seen)
    live = set()
    while stack:
        cell = driver.get(stack.pop())
        if cell is None:   # an input port
            continue
        live.add(cell.name)
        for net in cell.nets[:-1]:
            if net not in seen:
                seen.add(net)
                stack.append(net)
    return [c.name for c in netlist.cells if c.name not in live]


def _muxes_of_one_net(netlist):
    return [c.name for c in netlist.cells
            if c.kind == "MUX2" and c.pins["a"] == c.pins["b"]]


def _audit_grid(w):
    """Every share count, instance count and loader, with and without
    decoys; at w = 32 and 64 only the two corners, which cost the most."""
    for shares, instances, loader, decoys in itertools.product(
            (1, 2), (1, 2), ("absorb", "split"), (0, 300)):
        if w <= 16 or (shares, instances, loader, decoys) in (
                (1, 1, "absorb", 0), (2, 2, "split", 300)):
            yield GenConfig(w=w, shares=shares, instances=instances,
                            loader=loader, decoy_ffs=decoys, seed=1)


@pytest.mark.parametrize("w", keccak.LANE_WIDTHS)
def test_every_generated_cell_reaches_an_output(w):
    for cfg in _audit_grid(w):
        netlist, _ = generate_accelerator(cfg)
        assert _cells_reaching_no_output(netlist) == [], cfg
        assert _muxes_of_one_net(netlist) == [], cfg


# cell counts by kind of generate_accelerator(GenConfig(w, shares,
# instances, loader, decoy_ffs, seed=1)) before the generator stopped
# building the readout muxes that choose between two TIE0 nets and the
# incrementers' carries out of their last bit
KINDS = ("AND2", "BUF", "DFF", "INV", "MUX2", "NOR2", "OR2", "TIE0", "TIE1",
         "XOR2")
COUNTS_WITH_UNREAD_CELLS = {
    (1, 1, 1, "absorb", 0): (42, 0, 38, 29, 69, 1, 2, 1, 1, 84),
    (1, 2, 2, "split", 300): (286, 17, 428, 61, 264, 2, 18, 1, 1, 496),
    (4, 2, 1, "absorb", 300): (472, 17, 519, 106, 501, 1, 16, 1, 1, 894),
    (4, 1, 2, "split", 0): (240, 0, 242, 206, 526, 2, 4, 1, 1, 628),
    (16, 1, 2, "absorb", 300): (922, 17, 1188, 813, 1996, 2, 18, 1, 1, 2534),
    (16, 2, 1, "split", 0): (1635, 0, 852, 405, 1887, 1, 2, 1, 1, 3245),
    (64, 1, 1, "absorb", 0): (1683, 0, 1740, 1604, 3769, 1, 2, 1, 1, 4879),
    (64, 2, 2, "split", 300): (13018, 17, 7044, 3211, 14720, 2, 18, 1, 1,
                               25962),
}


@pytest.mark.parametrize("key", sorted(COUNTS_WITH_UNREAD_CELLS),
                         ids=lambda key: "-".join(map(str, key)))
def test_generator_dropped_only_the_unread_cells(key):
    # the readout mux over 25 lanes has 32 slots, 7 of them TIE0: per bit
    # and share three muxes of two TIE0 slots and one over two of those;
    # each instance has two incrementers, the round and readout counters
    w, shares, instances, loader, decoys = key
    netlist, _ = generate_accelerator(GenConfig(
        w=w, shares=shares, instances=instances, loader=loader,
        decoy_ffs=decoys, seed=1))
    kinds = Counter(c.kind for c in netlist.cells)
    expected = dict(zip(KINDS, COUNTS_WITH_UNREAD_CELLS[key]))
    expected["MUX2"] -= 4 * w * shares * instances
    expected["AND2"] -= 2 * instances
    assert set(kinds) <= set(KINDS)
    assert {k: kinds[k] for k in KINDS} == expected


def test_decoy_budget_exact():
    _, truth = generate_accelerator(GenConfig(w=8, decoy_ffs=777, seed=1))
    assert len(truth.decoy_ffs) == 777


def test_masked_counts():
    netlist, truth = generate_accelerator(GenConfig(w=8, shares=2, seed=2))
    assert validate(netlist) == []
    assert len(truth.all_state_ffs()) == 400
    assert truth.shares == 2


def test_multi_instance_counts():
    netlist, truth = generate_accelerator(GenConfig(w=8, instances=3, seed=2))
    assert validate(netlist) == []
    assert len(truth.instances) == 3
    assert len(truth.all_state_ffs()) == 600
    assert len(truth.all_input_ffs()) == 24


def test_sidecar_round_trip(oracle_w8):
    _, truth = oracle_w8
    again = GroundTruth.from_json(truth.to_json())
    assert again == truth


def test_sidecar_loads_with_a_key_it_does_not_know(oracle_w8):
    # older sidecars also carry the decoys found inside the state window
    _, truth = oracle_w8
    record = {**json.loads(truth.to_json()), "window_collisions": []}
    assert GroundTruth.from_json(json.dumps(record)) == truth


GROUND_TRUTH_MODULES = ("generator", "netlist", "keccak")
ANALYSIS_MODULES = {"depgraph", "scoring", "grouping", "locate", "sim",
                    "trojan", "cli"}


def _imported_modules(path):
    """Last dotted component of every module a source file imports, and
    every name taken from a package by ``from . import name``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("module", GROUND_TRUTH_MODULES)
def test_ground_truth_imports_no_analysis(module):
    # the ground truth must not run the analysis it grades
    path = Path(kecscope.__file__).parent / f"{module}.py"
    assert not _imported_modules(path) & ANALYSIS_MODULES


def test_round_logic_matches_reference_w8():
    netlist, truth = generate_accelerator(GenConfig(w=8, seed=0))
    rng = random.Random(11)
    states = [keccak.KeccakState(8, [rng.getrandbits(8) for _ in range(25)])
              for _ in range(10)]
    trace = run_rounds(netlist, truth, states)
    rounds = keccak.num_rounds(8)
    finals = []
    for lane, s in enumerate(states):
        want = keccak.keccak_f(s)
        got = read_state(netlist, truth, trace, rounds, lane)
        assert got.lanes == want.lanes
        finals.append(tuple(got.lanes))
    # bijectivity witness: distinct starting states stay distinct
    assert len(set(finals)) == len(states)


def test_masked_shares_xor_to_reference():
    netlist, truth = generate_accelerator(GenConfig(w=8, shares=2, seed=4))
    rng = random.Random(12)
    w = 8
    plains, s0s, s1s = [], [], []
    for _ in range(5):
        plain = keccak.KeccakState(w, [rng.getrandbits(w) for _ in range(25)])
        m = [rng.getrandbits(w) for _ in range(25)]
        plains.append(plain)
        s0s.append(keccak.KeccakState(w, [a ^ b for a, b in zip(plain.lanes, m)]))
        s1s.append(keccak.KeccakState(w, m))
    init = permute_init(netlist, truth, s0s, share=0)
    for k, v in permute_init(netlist, truth, s1s, share=1).items():
        init.setdefault(k, v)
    rounds = keccak.num_rounds(w)
    stim = [{p: 0 for p in netlist.input_ports()}] * (rounds + 1)
    cells = netlist.cells_by_name()
    watch = [cells[f].pins["q"] for f in truth.instances[0].state_ffs]
    trace = simulate(netlist, stim, rounds + 1, watch=watch, init=init,
                     batch=len(plains))
    for lane, plain in enumerate(plains):
        want = keccak.keccak_f(plain)
        got0 = read_state(netlist, truth, trace, rounds, lane, share=0)
        got1 = read_state(netlist, truth, trace, rounds, lane, share=1)
        assert [a ^ b for a, b in zip(got0.lanes, got1.lanes)] == want.lanes


def test_absorb_protocol_end_to_end():
    netlist, truth = generate_accelerator(GenConfig(w=8, seed=0))
    w, rounds = 8, keccak.num_rounds(8)
    word = 0xC7
    base = {p: 0 for p in netlist.input_ports()}
    data = {f"data_in0[{z}]": (word >> z) & 1 for z in range(w)}
    s_load = dict(base); s_load.update(data)
    s_start = dict(s_load); s_start["start0"] = 1
    stim = [dict(base), s_load, s_start] + [dict(base)] * (rounds + 2)
    cells = netlist.cells_by_name()
    watch = [cells[f].pins["q"] for f in truth.instances[0].state_ffs]
    trace = simulate(netlist, stim, len(stim), watch=watch)
    exp = keccak.KeccakState.zero(w)
    exp.lanes[0] = word
    want = keccak.keccak_f(exp)
    got = read_state(netlist, truth, trace, len(stim) - 1, 0)
    assert got.lanes == want.lanes
    # readout register exposes lane (0, 0) while the select counter is 0
    out = sum(trace.outputs[-1][f"data_out0[{z}]"] << z for z in range(w))
    assert out == want.lanes[0]


def test_core_netlist(oracle_w8):
    core, truth = generate_core(8)
    assert validate(core) == []
    assert len(truth.all_state_ffs()) == 200
    g = Named(extract_dependencies(core))
    fif, _ = (min(len(s) for s in keccak.round_dependency_sets(8)[0].values()),
              None)
    assert min(g.fanin(f) for f in truth.all_state_ffs()) == fif


def test_decoys_stay_out_of_the_window(oracle_w64, oracle_w64_graph):
    _, truth = oracle_w64
    g = Named(oracle_w64_graph)
    for f in truth.decoy_ffs:
        assert not (g.fanin(f) >= 33 and g.fanout(f) >= 34)


def test_state_degrees_respect_derived_floors(oracle_w8, oracle_w8_graph):
    from kecscope.locate import derive_bounds
    _, truth = oracle_w8
    g = Named(oracle_w8_graph)
    fif, fof = derive_bounds(8)
    for f in truth.all_state_ffs():
        assert g.fanin(f) >= fif
        assert g.fanout(f) >= fof
